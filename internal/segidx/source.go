package segidx

import (
	"repro/internal/kwindex"
)

// The Store serves reads through the same kwindex.Source interface as
// the in-memory index and the batch-built .xki reader, so the pipeline,
// executor, serving and presentation layers run unchanged over a live,
// writable index.
//
// Resolution walks the layer stack — optional base index, committed
// segments oldest first, sealed memtables, active memtable — with
// newest-wins masking per target object: a layer's posting is visible
// only if no newer layer claims its TO, where a claim is either a
// replacement document or a tombstone. Because every visible TO is
// owned by exactly one layer, the cross-layer union is disjoint by TO
// and needs no per-posting deduplication.

var (
	_ kwindex.Source         = (*Store)(nil)
	_ kwindex.FallibleSource = (*Store)(nil)
)

// layer is one level of the stack for a single resolution: its claim
// predicate (nil for the base, which masks nothing below it — there is
// nothing below it) and its posting lookup for one exact token.
type layer struct {
	claims func(int64) bool
	list   func(token string) []kwindex.Posting
}

// layers snapshots the current stack, oldest first. The snapshot stays
// valid after the store lock is released: segments are immutable,
// sealed memtables take no further writes, and the active memtable is
// internally synchronized.
func (s *Store) layers() []layer {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ls := make([]layer, 0, len(s.segs)+len(s.sealed)+2)
	if s.opts.Base != nil {
		ls = append(ls, layer{claims: nil, list: s.opts.Base.ContainingList})
	}
	for _, sg := range s.segs {
		sg := sg
		ls = append(ls, layer{claims: sg.claims, list: sg.rd.ContainingList})
	}
	for _, m := range s.sealed {
		m := m
		ls = append(ls, layer{claims: m.claims, list: m.postingsOf})
	}
	ls = append(ls, layer{claims: s.mem.claims, list: s.mem.postingsOf})
	return ls
}

// tokenPostings resolves one exact token across the stack: each layer's
// postings survive unless a newer layer claims their target object.
func tokenPostings(ls []layer, token string) []kwindex.Posting {
	var out []kwindex.Posting
	for i, l := range ls {
		postings := l.list(token)
	scan:
		for _, p := range postings {
			for j := i + 1; j < len(ls); j++ {
				if ls[j].claims(p.TO) {
					continue scan
				}
			}
			out = append(out, p)
		}
	}
	sortPostings(out)
	return out
}

// ContainingList returns the containing list L(k) of §4 over the live
// layered index. Multi-token keywords intersect per-token lists by
// (TO, node), exactly as the in-memory index does.
func (s *Store) ContainingList(k string) []kwindex.Posting {
	toks := kwindex.Tokenize(k)
	if len(toks) == 0 {
		return nil
	}
	ls := s.layers()
	if len(toks) == 1 {
		return tokenPostings(ls, toks[0])
	}
	lists := make([][]kwindex.Posting, len(toks))
	for i, t := range toks {
		lists[i] = tokenPostings(ls, t)
	}
	return kwindex.Intersect(lists)
}

// SchemaNodes returns the distinct schema nodes whose extensions
// contain keyword k, sorted.
func (s *Store) SchemaNodes(k string) []string {
	return kwindex.DistinctSchemaNodes(s.ContainingList(k))
}

// TOSet returns the target objects containing keyword k, restricted to
// postings on the given schema node ("" for any).
func (s *Store) TOSet(k, schemaNode string) map[int64]bool {
	return kwindex.TOSetFromList(s.ContainingList(k), schemaNode)
}

// NumPostings reports the summed posting count across all layers — an
// upper bound on the logical count, since a masked older version of an
// updated document still contributes to its own layer's total. The
// optimizer uses these numbers as relative size signals, for which the
// bound is the right trade against walking every layer's postings.
func (s *Store) NumPostings() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	if s.opts.Base != nil {
		n += s.opts.Base.NumPostings()
	}
	for _, sg := range s.segs {
		n += sg.rd.NumPostings()
	}
	for _, m := range s.sealed {
		p, _ := m.counts()
		n += p
	}
	p, _ := s.mem.counts()
	return n + p
}

// NumKeywords reports the summed distinct-token count across all layers
// — an upper bound, since a token indexed in several layers is counted
// once per layer.
func (s *Store) NumKeywords() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	if s.opts.Base != nil {
		n += s.opts.Base.NumKeywords()
	}
	for _, sg := range s.segs {
		n += sg.rd.NumKeywords()
	}
	for _, m := range s.sealed {
		_, t := m.counts()
		n += t
	}
	_, t := s.mem.counts()
	return n + t
}

// Summary resolves a target object's presentation summary through the
// layer stack, newest first: the active memtable, the sealed
// memtables, then the committed segments (whose metas carry each doc's
// summary since format v2). ok=false means the store has no opinion —
// the TO was never ingested here (or was tombstoned, or came from a v1
// meta without summaries) — and the caller should fall back to the
// object graph. core.System.SummaryOf is that caller.
func (s *Store) Summary(to int64) (string, bool) {
	// The layers are walked under the read lock, so a lookup allocates
	// nothing: /api/query reads every result TO's summary here twice,
	// for its rendering and for its objects.
	s.mu.RLock()
	defer s.mu.RUnlock()
	if sum, ok, claimed := s.mem.summaryOf(to); claimed {
		return sum, ok
	}
	for i := len(s.sealed) - 1; i >= 0; i-- {
		if sum, ok, claimed := s.sealed[i].summaryOf(to); claimed {
			return sum, ok
		}
	}
	for i := len(s.segs) - 1; i >= 0; i-- {
		if sum, ok := s.segs[i].docs[to]; ok {
			return sum, sum != ""
		}
		if s.segs[i].tombs[to] {
			return "", false
		}
	}
	return "", false
}

// Err reports the store's own first failure: a background flush or
// compaction failure, or a segment reader's recorded fault. The base
// index's state is not the store's failure; Health folds it in.
func (s *Store) Err() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.bgErr != nil {
		return s.bgErr
	}
	for _, sg := range s.segs {
		if err := sg.rd.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Health reports the worst state of the store's layers: its own
// failures (Err) make it unavailable, and otherwise it is as healthy as
// its base index (kwindex.HealthOf) — a base healed onto a rebuilt
// fallback leaves the store answering correctly, and degraded.
func (s *Store) Health() (kwindex.Health, error) {
	if err := s.Err(); err != nil {
		return kwindex.HealthUnavailable, err
	}
	return kwindex.HealthOf(s.opts.Base)
}

// SegmentStats describes one committed segment.
type SegmentStats struct {
	ID       uint64 `json:"id"`
	Keywords int    `json:"keywords"`
	Postings int    `json:"postings"`
	Docs     int    `json:"docs"`
	Tombs    int    `json:"tombs"`
}

// Stats is a point-in-time snapshot of the store for debugging and the
// serving layer's introspection endpoint.
type Stats struct {
	Dir      string         `json:"dir"`
	Segments []SegmentStats `json:"segments"`
	MemDocs  int            `json:"mem_docs"`
	MemTombs int            `json:"mem_tombs"`
	MemOps   int            `json:"mem_ops"`
	MemBytes int64          `json:"mem_bytes"`
	Sealed   int            `json:"sealed_memtables"`
	WALSeq   uint64         `json:"wal_seq"`
	WALBytes int64          `json:"wal_bytes"`
	Flushes  int64          `json:"flushes"`
	Compacts int64          `json:"compactions"`
	Err      string         `json:"err,omitempty"`
}

// Stats snapshots the store's current shape.
func (s *Store) Stats() Stats {
	err := s.Err()
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{
		Dir:      s.dir,
		Sealed:   len(s.sealed),
		WALSeq:   s.wal.id,
		WALBytes: s.wal.size,
		Flushes:  s.flushes,
		Compacts: s.compacts,
	}
	if err != nil {
		st.Err = err.Error()
	}
	for _, sg := range s.segs {
		st.Segments = append(st.Segments, SegmentStats{
			ID:       sg.id,
			Keywords: sg.rd.NumKeywords(),
			Postings: sg.rd.NumPostings(),
			Docs:     len(sg.docs),
			Tombs:    len(sg.tombs),
		})
	}
	st.MemDocs, st.MemTombs, st.MemOps, st.MemBytes = s.mem.stats()
	return st
}
