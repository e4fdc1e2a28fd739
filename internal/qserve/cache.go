package qserve

import (
	"time"

	"repro/internal/exec"
	"repro/internal/lru"
)

// ResultCache is the serving layer's result cache: an lru.Cache over
// query results bounded by entries, approximate bytes and a TTL. The
// Server keys it by normalized query (cacheKey); it is exported for
// other serving surfaces that need the same machinery with their own
// keys — the shard server caches /shard/execute responses with it.
type ResultCache struct {
	c *lru.Cache[string, cachedResult]
}

// cachedResult is one answer and the caller annotation returned
// verbatim with it on every hit — the serving layer stores relaxation
// records there, so a cached relaxed answer stays loudly annotated.
type cachedResult struct {
	rs   []exec.Result
	meta any
}

// resultCacheShards keeps lock contention off the serve path: a hot
// cache under concurrent load would otherwise serialize every hit on
// one mutex.
const resultCacheShards = 8

// NewResultCache builds a cache with the given shard count (default 8),
// total entry and byte bounds, and TTL (non-positive TTL = no expiry).
func NewResultCache(shards, maxEntries int, maxBytes int64, ttl time.Duration) *ResultCache {
	if shards <= 0 {
		shards = resultCacheShards
	}
	return &ResultCache{c: lru.New(lru.Config[string, cachedResult]{
		Shards:     shards,
		MaxEntries: maxEntries,
		MaxBytes:   maxBytes,
		TTL:        ttl,
		Hash:       lru.HashString,
		Size:       func(key string, e cachedResult) int64 { return resultBytes(key, e.rs) },
	})}
}

// Get returns the cached results and the meta value stored with them.
func (rc *ResultCache) Get(key string) ([]exec.Result, any, bool) {
	e, ok := rc.c.Get(key)
	return e.rs, e.meta, ok
}

// Put stores results under key; meta comes back verbatim from Get. It
// returns the number of entries evicted to fit the new one.
func (rc *ResultCache) Put(key string, rs []exec.Result, meta any) int64 {
	return int64(rc.c.Put(key, cachedResult{rs, meta}))
}

// Clear drops every entry and returns how many were dropped.
func (rc *ResultCache) Clear() int64 { return int64(rc.c.Clear()) }

// Usage totals the cached entries and approximate bytes.
func (rc *ResultCache) Usage() (entries int, bytes int64) { return rc.c.Len(), rc.c.Bytes() }

// resultBytes approximates an entry's memory footprint: the key, the
// slice headers, and the per-result binding arrays. Networks are shared
// with the engine's memo, so only the pointer is charged.
func resultBytes(key string, rs []exec.Result) int64 {
	n := int64(len(key)) + 96 // entry struct, map slot, list element
	for _, r := range rs {
		n += 48 + 8*int64(len(r.Bind))
	}
	return n
}
