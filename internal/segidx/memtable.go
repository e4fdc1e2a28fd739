package segidx

import (
	"sort"
	"sync"

	"repro/internal/kwindex"
)

// memDoc is one live document in the memtable together with its derived
// postings, kept so a replacement or delete can unindex it exactly.
type memDoc struct {
	doc     Document
	summary string   // doc.Summary(), rendered once at apply
	tokens  []string // distinct tokens this doc contributed, for unindexing
}

// memtable is the mutable in-memory segment: the newest layer of the
// store. It absorbs upserts and deletes and answers token lookups until
// it is sealed and flushed to an immutable on-disk segment. Safe for
// concurrent use.
type memtable struct {
	mu    sync.RWMutex
	docs  map[int64]*memDoc                      // guarded by mu — live documents by TO
	tombs map[int64]bool                         // guarded by mu — deleted TOs masking older layers
	inv   map[string]map[int64][]kwindex.Posting // guarded by mu — token → TO → postings
	bytes int64                                  // guarded by mu — approximate footprint
	ops   int                                    // guarded by mu — applied operations (for stats)
	posts int                                    // guarded by mu — live posting count
}

func newMemtable() *memtable {
	return &memtable{
		docs:  make(map[int64]*memDoc),
		tombs: make(map[int64]bool),
		inv:   make(map[string]map[int64][]kwindex.Posting),
	}
}

// apply absorbs one acknowledged batch.
func (m *memtable) apply(batch Batch) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, op := range batch {
		if op.Doc != nil {
			m.addLocked(*op.Doc)
		} else {
			m.deleteLocked(op.Delete)
		}
		m.ops++
	}
}

func (m *memtable) addLocked(d Document) {
	m.unindexLocked(d.TO)
	// A re-added TO is alive again: the doc entry itself masks older
	// layers, so the tombstone would only misreport the TO as deleted.
	delete(m.tombs, d.TO)
	md := &memDoc{doc: d, summary: d.Summary()}
	seenTok := make(map[string]bool)
	d.postings(func(tok string, p kwindex.Posting) {
		byTO := m.inv[tok]
		if byTO == nil {
			byTO = make(map[int64][]kwindex.Posting)
			m.inv[tok] = byTO
		}
		byTO[d.TO] = append(byTO[d.TO], p)
		m.posts++
		if !seenTok[tok] {
			seenTok[tok] = true
			md.tokens = append(md.tokens, tok)
		}
	})
	m.docs[d.TO] = md
	m.bytes += d.approxBytes()
}

func (m *memtable) deleteLocked(to int64) {
	m.unindexLocked(to)
	m.tombs[to] = true
	m.bytes += 16
}

// unindexLocked removes an existing doc's postings ahead of its
// replacement or deletion.
func (m *memtable) unindexLocked(to int64) {
	md := m.docs[to]
	if md == nil {
		return
	}
	for _, tok := range md.tokens {
		byTO := m.inv[tok]
		m.posts -= len(byTO[to])
		delete(byTO, to)
		if len(byTO) == 0 {
			delete(m.inv, tok)
		}
	}
	delete(m.docs, to)
	m.bytes -= md.doc.approxBytes()
}

// claims reports whether this layer owns the target object — either a
// live document or a tombstone — and so masks every older layer's
// postings for it.
func (m *memtable) claims(to int64) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.docs[to] != nil || m.tombs[to]
}

// postingsOf returns the sorted postings of one exact token. The slice
// is freshly allocated and owned by the caller.
func (m *memtable) postingsOf(token string) []kwindex.Posting {
	m.mu.RLock()
	defer m.mu.RUnlock()
	byTO := m.inv[token]
	if len(byTO) == 0 {
		return nil
	}
	var out []kwindex.Posting
	for _, ps := range byTO {
		out = append(out, ps...)
	}
	sortPostings(out)
	return out
}

// snapshot freezes the memtable's content for flushing: the full
// token → postings map (ownership transferred to the caller), the live
// docs (TO → summary, carried into the segment meta so ingested objects
// keep presenting properly after a flush) and the tombstone set. Only
// called on sealed memtables, which no longer receive writes, but it
// locks anyway so a late reader snapshotting concurrently stays safe.
func (m *memtable) snapshot() (postings map[string][]kwindex.Posting, docs map[int64]string, tombs map[int64]bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	postings = make(map[string][]kwindex.Posting, len(m.inv))
	for tok, byTO := range m.inv {
		var ps []kwindex.Posting
		for _, l := range byTO {
			ps = append(ps, l...)
		}
		sortPostings(ps)
		postings[tok] = ps
	}
	docs = make(map[int64]string, len(m.docs))
	for to, md := range m.docs {
		docs[to] = md.summary
	}
	tombs = make(map[int64]bool, len(m.tombs))
	for to := range m.tombs {
		tombs[to] = true
	}
	return postings, docs, tombs
}

// summaryOf resolves one TO in this layer: claimed=false means the
// layer has no opinion (look further down the stack); ok=false with
// claimed=true means a tombstone.
func (m *memtable) summaryOf(to int64) (summary string, ok, claimed bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if md := m.docs[to]; md != nil {
		return md.summary, true, true
	}
	if m.tombs[to] {
		return "", false, true
	}
	return "", false, false
}

// stats returns the memtable's occupancy.
func (m *memtable) stats() (docs, tombs, ops int, bytes int64) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.docs), len(m.tombs), m.ops, m.bytes
}

// empty reports whether the memtable holds no state worth flushing.
func (m *memtable) empty() bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.docs) == 0 && len(m.tombs) == 0
}

// counts returns the live posting and distinct-token counts.
func (m *memtable) counts() (postings, tokens int) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.posts, len(m.inv)
}

func (m *memtable) approxBytes() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.bytes
}

func sortPostings(ps []kwindex.Posting) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].TO != ps[j].TO {
			return ps[i].TO < ps[j].TO
		}
		return ps[i].Node < ps[j].Node
	})
}
