package segidx

import (
	"repro/internal/kwindex"
)

// The Store serves reads through the same kwindex.Source interface as
// the in-memory index and the batch-built .xki reader, so the pipeline,
// executor, serving and presentation layers run unchanged over a live,
// writable index.
//
// Every read, flush and compaction walks one layer stack: optional base
// index, committed segments oldest first, sealed memtables, active
// memtable. A layer claims a target object with a document or a
// tombstone, and the newest layer that claims a TO owns it: a layer's
// posting is visible only if no newer layer claims its TO. Because every
// visible TO is owned by exactly one layer, the cross-layer union is
// disjoint by TO and needs no per-posting deduplication.

var (
	_ kwindex.Source         = (*Store)(nil)
	_ kwindex.FallibleSource = (*Store)(nil)
)

// A claim is what one layer says about a target object.
type claim uint8

const (
	noClaim   claim = iota
	docClaim        // the layer holds the TO's document: its postings and summary
	tombClaim       // the layer deleted the TO
)

// layer is one level of the stack: a memtable, a committed segment, or
// the base index.
type layer interface {
	// claim reports the layer's claim on one TO, with the document's
	// summary for a docClaim.
	claim(to int64) (claim, string)
	// eachClaim calls f for every TO the layer claims, under the layer's
	// read lock: f must not call back into the same layer.
	eachClaim(f func(to int64, c claim, summary string))
	// postings returns one exact token's postings, sorted.
	postings(token string) []kwindex.Posting
	// terms lists the tokens the layer indexes.
	terms() []string
	// counts returns the layer's posting and distinct-token counts.
	counts() (postings, keywords int)
	// err reports the layer's own recorded read fault.
	err() error
}

// baseLayer is the read-only bulk index at the bottom of the stack. It
// claims nothing: there is nothing below it to mask. It is never merged,
// so it lists no terms.
type baseLayer struct{ kwindex.Source }

func (baseLayer) claim(int64) (claim, string)             { return noClaim, "" }
func (baseLayer) eachClaim(func(int64, claim, string))    {}
func (b baseLayer) postings(tok string) []kwindex.Posting { return b.ContainingList(tok) }
func (baseLayer) terms() []string                         { return nil }
func (b baseLayer) counts() (int, int)                    { return b.NumPostings(), b.NumKeywords() }
func (baseLayer) err() error                              { return nil }

// newestClaim is the stack's one resolution rule: the newest layer of ls
// (oldest first) that claims the TO owns it. It returns that claim and
// the document's summary, or noClaim.
func newestClaim(ls []layer, to int64) (claim, string) {
	for i := len(ls) - 1; i >= 0; i-- {
		if c, sum := ls[i].claim(to); c != noClaim {
			return c, sum
		}
	}
	return noClaim, ""
}

// owns reports whether layer i of ls still owns a TO: no newer layer
// claims it, so the layer's claim and postings for it are visible.
func owns(ls []layer, i int, to int64) bool {
	c, _ := newestClaim(ls[i+1:], to)
	return c == noClaim
}

// layers returns the current stack, oldest first. The slice stays valid
// after the store lock is released: an install replaces it instead of
// mutating it, segments are immutable, sealed memtables take no further
// writes, and the active memtable is internally synchronized.
func (s *Store) layers() []layer {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.stack
}

// tokenPostings resolves one exact token across the stack: each layer's
// postings survive unless a newer layer claims their target object.
func tokenPostings(ls []layer, token string) []kwindex.Posting {
	var out []kwindex.Posting
	for i, l := range ls {
		for _, p := range l.postings(token) {
			if owns(ls, i, p.TO) {
				out = append(out, p)
			}
		}
	}
	kwindex.SortPostings(out)
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
	n := 0
	for _, l := range s.layers() {
		p, _ := l.counts()
		n += p
	}
	return n
}

// NumKeywords reports the summed distinct-token count across all layers
// — an upper bound, since a token indexed in several layers is counted
// once per layer.
func (s *Store) NumKeywords() int {
	n := 0
	for _, l := range s.layers() {
		_, k := l.counts()
		n += k
	}
	return n
}

// Summary resolves a target object's presentation summary through the
// stack: the newest claim decides. ok=false means the store has no
// opinion — the TO was never ingested here, or was tombstoned — and the
// caller should fall back to the object graph. core.System.SummaryOf is
// that caller. A lookup allocates nothing: /api/query reads every result
// TO's summary here twice, for its rendering and for its objects.
func (s *Store) Summary(to int64) (string, bool) {
	c, sum := newestClaim(s.layers(), to)
	return sum, c == docClaim && sum != ""
}

// Err reports the store's own first failure: a background flush or
// compaction failure, or a segment reader's recorded fault. The base
// index's state is not the store's failure; Health folds it in.
func (s *Store) Err() error {
	s.mu.RLock()
	bgErr := s.bgErr
	s.mu.RUnlock()
	if bgErr != nil {
		return bgErr
	}
	for _, l := range s.layers() {
		if err := l.err(); err != nil {
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
	lo, hi := s.segmentRun(s.stack)
	st := Stats{
		Dir:      s.dir,
		Sealed:   len(s.stack) - 1 - hi,
		WALSeq:   s.wal.id,
		WALBytes: s.wal.size,
		Flushes:  s.flushes,
		Compacts: s.compacts,
	}
	if err != nil {
		st.Err = err.Error()
	}
	for _, l := range s.stack[lo:hi] {
		sg := l.(*segment)
		st.Segments = append(st.Segments, SegmentStats{
			ID:       sg.id,
			Keywords: sg.rd.NumKeywords(),
			Postings: sg.rd.NumPostings(),
			Docs:     len(sg.docs),
			Tombs:    len(sg.tombs),
		})
	}
	st.MemDocs, st.MemTombs, st.MemOps, st.MemBytes = active(s.stack).stats()
	return st
}
