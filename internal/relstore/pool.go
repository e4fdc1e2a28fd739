// Package relstore is the relational substrate XKeyword runs on. The
// paper stores connection relations in Oracle 9i with single-attribute
// indexes and index-organized (clustered) tables; experiments are driven
// by page I/O behaviour. We substitute an in-memory relational engine
// with explicit paged storage and an LRU buffer pool so the same effects
// — random vs sequential access, clustering in the probe direction, MVD
// cardinality blow-up, buffer-cache reuse — are observable and counted.
package relstore

import (
	"sync/atomic"

	"repro/internal/lru"
)

// PageRows is the number of tuples per page. Connection relations hold
// only integer IDs, so pages are wide; 128 rows/page keeps relation page
// counts realistic at the benchmark scales.
const PageRows = 128

// PageKey identifies one page of one physical ordering of a relation.
type PageKey struct {
	Relation string
	Ordering string // "" for the primary (insertion/clustered) order
	Page     int32
}

// IOStats counts the logical and physical accesses of a store. All
// counters are cumulative and safe for concurrent use.
type IOStats struct {
	PageReads int64 // buffer-pool misses (simulated physical reads)
	SeqReads  int64 // the subset of PageReads that were sequential
	PageHits  int64 // buffer-pool hits
	Lookups   int64 // index/clustered lookups
	Scans     int64 // full relation scans
	RowsRead  int64 // tuples returned to the caller
}

// SeqFactor is how many sequential page reads cost as much as one random
// read. Disk-era hardware (the paper ran on 2002 disks) reads
// sequentially roughly an order of magnitude faster than it seeks.
const SeqFactor = 8

// Cost returns the weighted I/O cost: random reads plus sequential reads
// discounted by SeqFactor.
func (s *IOStats) Cost() float64 {
	snap := s.Snapshot()
	rand := snap.PageReads - snap.SeqReads
	return float64(rand) + float64(snap.SeqReads)/SeqFactor
}

// Add accumulates o into s atomically. Lookups count into a local
// IOStats and Add it once per operation (per plan evaluation, in the
// executor), not once per probe.
func (s *IOStats) Add(o IOStats) {
	atomic.AddInt64(&s.PageReads, o.PageReads)
	atomic.AddInt64(&s.SeqReads, o.SeqReads)
	atomic.AddInt64(&s.PageHits, o.PageHits)
	atomic.AddInt64(&s.Lookups, o.Lookups)
	atomic.AddInt64(&s.Scans, o.Scans)
	atomic.AddInt64(&s.RowsRead, o.RowsRead)
}

// Snapshot returns a copy of the counters, safe to read concurrently.
func (s *IOStats) Snapshot() IOStats {
	return IOStats{
		PageReads: atomic.LoadInt64(&s.PageReads),
		SeqReads:  atomic.LoadInt64(&s.SeqReads),
		PageHits:  atomic.LoadInt64(&s.PageHits),
		Lookups:   atomic.LoadInt64(&s.Lookups),
		Scans:     atomic.LoadInt64(&s.Scans),
		RowsRead:  atomic.LoadInt64(&s.RowsRead),
	}
}

// BufferPool is a fixed-capacity LRU page cache shared by all relations
// of a store: a single-shard (exact LRU) lru.Cache recording presence
// only. Access records a hit or a miss; misses evict the least recently
// used page once the pool is full.
type BufferPool struct {
	pages *lru.Cache[PageKey, struct{}]
}

// NewBufferPool returns a pool holding at most capacity pages, or nil —
// no pool, every access a miss — when capacity <= 0.
func NewBufferPool(capacity int) *BufferPool {
	if capacity <= 0 {
		return nil
	}
	return &BufferPool{pages: lru.New(lru.Config[PageKey, struct{}]{MaxEntries: capacity})}
}

// Access touches a page and reports whether it was cached.
func (p *BufferPool) Access(k PageKey) (hit bool) {
	_, hit = p.pages.GetOrPut(k, struct{}{})
	return hit
}

// Len returns the number of cached pages.
func (p *BufferPool) Len() int { return p.pages.Len() }

// Reset empties the pool.
func (p *BufferPool) Reset() { p.pages.Clear() }
