// Package lru is the repo's one bounded cache: a sharded, strict-LRU
// map bounded by entries and/or bytes, with an optional lazily checked
// TTL. The query result cache, the shard execute cache, the disk-index
// page pool and decoded-list cache, the relstore buffer pool and the
// shape memo are all instances of Cache; nothing else in the module
// evicts.
//
// Policy. Each shard is an exact LRU: Get, Put and GetOrPut move the
// entry to the front, eviction takes from the back. With one shard the
// whole cache is an exact LRU (the relstore buffer pool's page-read
// counts depend on that).
//
// Admission. One rule for every caller: an entry whose size exceeds
// half its shard's byte budget is not stored — it would evict most of
// the shard to keep one key — and everything else is stored, evicting
// from the back until the shard is within both budgets. So a shard
// never holds more than its share of either budget, and an entry-only
// cache (MaxBytes 0) admits everything.
package lru

import (
	"sync"
	"time"
)

// Config bounds a Cache. The zero value of a field means "no such
// bound"; a cache with neither MaxEntries nor MaxBytes grows without
// limit.
type Config[K comparable, V any] struct {
	// Shards is the number of independently locked shards; the budgets
	// are split evenly between them. Values below 2, and entry budgets
	// smaller than the shard count, give a single shard.
	Shards int
	// MaxEntries and MaxBytes bound the whole cache.
	MaxEntries int
	MaxBytes   int64
	// TTL is the lifetime of an entry from its last Put; an expired
	// entry is dropped by the Get that finds it. Non-positive: no expiry.
	TTL time.Duration
	// Hash picks a key's shard; required with more than one shard. It
	// must not vary between processes if eviction counts are to repeat
	// (HashString does not).
	Hash func(K) uint64
	// Size is an entry's charge against MaxBytes; required with it.
	Size func(K, V) int64
}

// Cache is a sharded LRU map, safe for concurrent use. Values are
// handed out as stored: callers treat them as immutable.
type Cache[K comparable, V any] struct {
	shards []shard[K, V]
	hash   func(K) uint64
	size   func(K, V) int64
	ttl    time.Duration
	now    func() time.Time // time.Now, replaced by the TTL test
}

type shard[K comparable, V any] struct {
	mu         sync.Mutex
	m          map[K]*node[K, V] // guarded by mu
	root       node[K, V]        // guarded by mu; list sentinel: root.next = most recent, root.prev = least
	bytes      int64             // guarded by mu
	maxEntries int               // 0 = unbounded
	maxBytes   int64             // 0 = unbounded
}

// node is a map entry and its own list element.
type node[K comparable, V any] struct {
	prev, next *node[K, V]
	key        K
	val        V
	size       int64
	expires    time.Time // zero = never
}

// New builds a cache. It panics on a configuration only a programming
// error produces: several shards without Hash, MaxBytes without Size.
func New[K comparable, V any](cfg Config[K, V]) *Cache[K, V] {
	n := cfg.Shards
	if n < 2 || (cfg.MaxEntries > 0 && cfg.MaxEntries < n) {
		n = 1
	}
	if n > 1 && cfg.Hash == nil {
		panic("lru: Shards > 1 needs Hash")
	}
	if cfg.MaxBytes > 0 && cfg.Size == nil {
		panic("lru: MaxBytes needs Size")
	}
	c := &Cache[K, V]{
		shards: make([]shard[K, V], n),
		hash:   cfg.Hash,
		size:   cfg.Size,
		ttl:    cfg.TTL,
		now:    time.Now,
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.m = make(map[K]*node[K, V])
		sh.root.prev, sh.root.next = &sh.root, &sh.root
		sh.maxEntries = cfg.MaxEntries / n
		if cfg.MaxBytes > 0 {
			sh.maxBytes = max(cfg.MaxBytes/int64(n), 1)
		}
	}
	return c
}

// HashString is an allocation-free FNV-1a over a string key. It is not
// seeded: which keys share a shard is the same in every process.
func HashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

func (c *Cache[K, V]) shard(k K) *shard[K, V] {
	if len(c.shards) == 1 {
		return &c.shards[0]
	}
	return &c.shards[c.hash(k)%uint64(len(c.shards))]
}

// Get returns the value stored under k and marks it most recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	sh := c.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if n := c.liveLocked(sh, k); n != nil {
		return n.val, true
	}
	var zero V
	return zero, false
}

// Put stores v under k, replacing any previous value and restarting its
// TTL, and returns how many other entries were evicted to fit it. A
// value the admission rule refuses is not stored (and the key's old
// value is dropped, so a refused refresh cannot leave a stale answer).
func (c *Cache[K, V]) Put(k K, v V) (evicted int) {
	sh := c.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if n, ok := sh.m[k]; ok {
		sh.removeLocked(n)
	}
	return c.insertLocked(sh, k, v)
}

// GetOrPut returns the value already stored under k, marking it most
// recently used, or stores v and returns it. Racing loaders of one key
// therefore all end up with the first copy stored.
func (c *Cache[K, V]) GetOrPut(k K, v V) (actual V, loaded bool) {
	sh := c.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if n := c.liveLocked(sh, k); n != nil {
		return n.val, true
	}
	c.insertLocked(sh, k, v)
	return v, false
}

// DeleteIf drops k's entry when match accepts its value, and reports
// whether it did. match runs under the shard lock, as in DeleteFunc.
func (c *Cache[K, V]) DeleteIf(k K, match func(V) bool) bool {
	sh := c.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	n, ok := sh.m[k]
	if ok && match(n.val) {
		sh.removeLocked(n)
		return true
	}
	return false
}

// DeleteFunc drops every entry whose key satisfies match and returns
// how many were dropped. match runs under a shard lock: it must be
// quick and must not call back into the cache.
func (c *Cache[K, V]) DeleteFunc(match func(K) bool) (dropped int) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for n := sh.root.next; n != &sh.root; {
			next := n.next
			if match(n.key) {
				sh.removeLocked(n)
				dropped++
			}
			n = next
		}
		sh.mu.Unlock()
	}
	return dropped
}

// Clear drops every entry and returns how many were dropped.
func (c *Cache[K, V]) Clear() (dropped int) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		dropped += len(sh.m)
		clear(sh.m)
		sh.root.prev, sh.root.next = &sh.root, &sh.root
		sh.bytes = 0
		sh.mu.Unlock()
	}
	return dropped
}

// Len returns the number of entries held (expired ones included until a
// Get finds them).
func (c *Cache[K, V]) Len() (n int) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

// Bytes returns the summed Size of the entries held.
func (c *Cache[K, V]) Bytes() (b int64) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		b += sh.bytes
		sh.mu.Unlock()
	}
	return b
}

// liveLocked returns k's node moved to the front, or nil when k is
// absent or expired (an expired node is removed).
func (c *Cache[K, V]) liveLocked(sh *shard[K, V], k K) *node[K, V] {
	n, ok := sh.m[k]
	if !ok {
		return nil
	}
	if !n.expires.IsZero() && c.now().After(n.expires) {
		sh.removeLocked(n)
		return nil
	}
	if sh.root.next != n {
		n.prev.next, n.next.prev = n.next, n.prev
		sh.pushFrontLocked(n)
	}
	return n
}

// insertLocked applies the admission rule to a key the shard does not
// hold, then evicts from the back until the shard is within budget.
func (c *Cache[K, V]) insertLocked(sh *shard[K, V], k K, v V) (evicted int) {
	var size int64
	if sh.maxBytes > 0 {
		if size = c.size(k, v); size > sh.maxBytes/2 {
			return 0
		}
	}
	n := &node[K, V]{key: k, val: v, size: size}
	if c.ttl > 0 {
		n.expires = c.now().Add(c.ttl)
	}
	sh.m[k] = n
	sh.bytes += n.size
	sh.pushFrontLocked(n)
	for (sh.maxEntries > 0 && len(sh.m) > sh.maxEntries) || (sh.maxBytes > 0 && sh.bytes > sh.maxBytes) {
		sh.removeLocked(sh.root.prev)
		evicted++
	}
	return evicted
}

func (sh *shard[K, V]) pushFrontLocked(n *node[K, V]) {
	n.prev, n.next = &sh.root, sh.root.next
	n.prev.next, n.next.prev = n, n
}

func (sh *shard[K, V]) removeLocked(n *node[K, V]) {
	n.prev.next, n.next.prev = n.next, n.prev
	n.prev, n.next = nil, nil
	delete(sh.m, n.key)
	sh.bytes -= n.size
}
