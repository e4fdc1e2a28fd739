package lru

import (
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"testing"
	"time"
)

// step is one scripted operation. Values are ints that double as their
// own size in bytes.
type step struct {
	op   string // put | get | getorput | delprefix | clear | sleep
	k    string
	v    int
	want int // put: evictions · get: value, -1 = miss · getorput: value held after · delprefix/clear: dropped · sleep: unused
}

// TestPolicy scripts every behaviour the five call sites rely on against
// a single shard, where the outcome is fully determined: after the
// steps, the shard must hold exactly keys, most recent first.
func TestPolicy(t *testing.T) {
	cases := []struct {
		name       string
		maxEntries int
		maxBytes   int64
		ttl        time.Duration
		steps      []step
		keys       string // most recent first
		bytes      int64
	}{
		{
			name: "entry budget evicts least recently used", maxEntries: 3,
			steps: []step{
				{"put", "a", 1, 0}, {"put", "b", 1, 0}, {"put", "c", 1, 0},
				{"get", "a", 0, 1},  // a is now most recent: b is the victim
				{"put", "d", 1, 1},  // one eviction reported
				{"get", "b", 0, -1}, // evicted
			},
			keys: "d a c",
		},
		{
			name: "byte budget evicts until the shard fits", maxBytes: 100,
			steps: []step{
				{"put", "a", 30, 0}, {"put", "b", 30, 0}, {"put", "c", 30, 0},
				{"put", "d", 50, 2}, // 140 > 100: a, then b
			},
			keys: "d c", bytes: 80,
		},
		{
			name: "both budgets hold at once", maxEntries: 3, maxBytes: 100,
			steps: []step{
				{"put", "a", 40, 0}, {"put", "b", 40, 0},
				{"put", "c", 40, 1}, // bytes bind first: 120 > 100
				{"put", "d", 10, 0},
				{"put", "e", 10, 1}, // then entries: 4 > 3
			},
			keys: "e d c", bytes: 60,
		},
		{
			name: "admission: more than half the byte budget is refused", maxBytes: 100,
			steps: []step{
				{"put", "a", 30, 0},
				{"put", "big", 51, 0}, // refused: nothing evicted, nothing stored
				{"get", "big", 0, -1},
				{"put", "half", 50, 0}, // exactly half is admitted
				{"put", "a", 60, 0},    // refused refresh drops the stale value too
				{"get", "a", 0, -1},
			},
			keys: "half", bytes: 50,
		},
		{
			name: "admission: an entry-only cache admits any size", maxEntries: 2,
			steps: []step{{"put", "giant", 1 << 30, 0}, {"get", "giant", 0, 1 << 30}},
			keys:  "giant",
		},
		{
			name: "put refreshes value, size and recency", maxBytes: 100,
			steps: []step{
				{"put", "a", 10, 0}, {"put", "b", 10, 0},
				{"put", "a", 30, 0}, // replaced, not duplicated
				{"get", "a", 0, 30},
			},
			keys: "a b", bytes: 40,
		},
		{
			name: "ttl expires lazily on get; put restarts it", ttl: time.Minute,
			steps: []step{
				{"put", "a", 1, 0}, {"put", "b", 1, 0}, {"put", "c", 1, 0},
				{"sleep", "", 50, 0}, {"get", "a", 0, 1}, // still fresh
				{"put", "b", 2, 0}, // restarts b's clock
				{"sleep", "", 20, 0},
				{"get", "c", 0, -1},     // 70s old: dropped by this get
				{"get", "b", 0, 2},      // 20s old
				{"getorput", "a", 7, 7}, // an expired entry does not win GetOrPut
			},
			keys: "a b",
		},
		{
			name: "getorput keeps the first copy and touches it", maxEntries: 2,
			steps: []step{
				{"getorput", "a", 1, 1}, {"getorput", "b", 2, 2},
				{"getorput", "a", 9, 1}, // loser's copy discarded; a touched
				{"getorput", "c", 3, 3}, // b is the victim
				{"get", "b", 0, -1},
			},
			keys: "c a",
		},
		{
			name: "deletefunc and clear", maxBytes: 1000,
			steps: []step{
				{"put", "x1", 10, 0}, {"put", "y1", 10, 0}, {"put", "x2", 10, 0}, {"put", "y2", 10, 0},
				{"delprefix", "x", 0, 2}, {"get", "x1", 0, -1}, {"get", "y1", 0, 10},
				{"delprefix", "nothing", 0, 0},
				{"clear", "", 0, 2}, {"get", "y1", 0, -1},
				{"put", "z", 5, 0}, // usable after clear
			},
			keys: "z", bytes: 5,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			now := time.Unix(0, 0)
			c := New(Config[string, int]{
				MaxEntries: tc.maxEntries, MaxBytes: tc.maxBytes, TTL: tc.ttl,
				Size: func(_ string, v int) int64 { return int64(v) },
			})
			c.now = func() time.Time { return now }
			for i, s := range tc.steps {
				got := 0
				switch s.op {
				case "put":
					got = c.Put(s.k, s.v)
				case "get":
					v, ok := c.Get(s.k)
					if got = v; !ok {
						got = -1
					}
				case "getorput":
					got, _ = c.GetOrPut(s.k, s.v)
				case "delprefix":
					got = c.DeleteFunc(func(k string) bool { return strings.HasPrefix(k, s.k) })
				case "clear":
					got = c.Clear()
				case "sleep":
					now = now.Add(time.Duration(s.v) * time.Second)
				default:
					t.Fatalf("step %d: unknown op %q", i, s.op)
				}
				if got != s.want {
					t.Fatalf("step %d (%s %s %d) = %d, want %d", i, s.op, s.k, s.v, got, s.want)
				}
			}
			var keys []string
			sh := &c.shards[0]
			for n := sh.root.next; n != &sh.root; n = n.next {
				keys = append(keys, n.key)
			}
			if got := strings.Join(keys, " "); got != tc.keys {
				t.Errorf("keys (most recent first) = %q, want %q", got, tc.keys)
			}
			if c.Len() != len(keys) {
				t.Errorf("Len = %d, list holds %d", c.Len(), len(keys))
			}
			if tc.maxBytes > 0 && c.Bytes() != tc.bytes {
				t.Errorf("Bytes = %d, want %d", c.Bytes(), tc.bytes)
			}
		})
	}
}

// TestShardBudgets: budgets are split evenly and never exceeded in
// total, and a budget of fewer entries than shards gets one shard — a
// 1-page pool holds one page, not one per shard.
func TestShardBudgets(t *testing.T) {
	for _, tc := range []struct{ shards, maxEntries, wantShards int }{
		{8, 4096, 8}, {8, 8, 8}, {8, 7, 1}, {8, 1, 1}, {0, 5, 1}, {1, 0, 1}, {8, 0, 8},
	} {
		c := New(Config[string, int]{Shards: tc.shards, MaxEntries: tc.maxEntries, Hash: HashString})
		if got := len(c.shards); got != tc.wantShards {
			t.Errorf("Shards %d MaxEntries %d: %d shards, want %d", tc.shards, tc.maxEntries, got, tc.wantShards)
		}
		for i := 0; i < 3*tc.maxEntries; i++ {
			c.Put(fmt.Sprint("k", i), i)
		}
		if tc.maxEntries > 0 && c.Len() > tc.maxEntries {
			t.Errorf("Shards %d MaxEntries %d: holds %d entries", tc.shards, tc.maxEntries, c.Len())
		}
	}
	c := New(Config[string, int]{Shards: 4, MaxBytes: 4000, Hash: HashString,
		Size: func(string, int) int64 { return 100 }})
	for i := 0; i < 500; i++ {
		c.Put(fmt.Sprint("k", i), i)
	}
	if c.Bytes() > 4000 || c.Len() < 20 {
		t.Errorf("byte-bounded sharded cache holds %d bytes in %d entries, budget 4000", c.Bytes(), c.Len())
	}
}

// TestHashString: the shard picker is plain FNV-1a — the same in every
// process, so eviction counts repeat from run to run — and a hit
// allocates nothing.
func TestHashString(t *testing.T) {
	for _, s := range []string{"", "a", "topk|10|0||codd\x00relational", strings.Repeat("x", 300)} {
		h := fnv.New64a()
		h.Write([]byte(s))
		if got, want := HashString(s), h.Sum64(); got != want {
			t.Errorf("HashString(%q) = %#x, want FNV-1a %#x", s, got, want)
		}
	}
	c := New(Config[string, []int]{Shards: 8, MaxEntries: 64, MaxBytes: 1 << 20, TTL: time.Hour, Hash: HashString,
		Size: func(k string, v []int) int64 { return int64(len(k) + 8*len(v)) }})
	key := "topk|10|0||codd\x00relational"
	c.Put(key, []int{1, 2, 3})
	c.Put("other", nil)
	if avg := testing.AllocsPerRun(200, func() {
		if _, ok := c.Get(key); !ok {
			t.Fatal("miss")
		}
	}); avg != 0 {
		t.Errorf("a hit allocates %.1f times, want 0", avg)
	}
}

// TestRacingLoaders: many goroutines load the same keys at once (the
// page pool's miss path); every loader of a key ends up holding the one
// copy that was stored first.
func TestRacingLoaders(t *testing.T) {
	c := New(Config[int64, *int]{Shards: 4, MaxEntries: 64, Hash: func(k int64) uint64 { return uint64(k) }})
	const loaders, keys = 16, 8
	got := make([][keys]*int, loaders)
	var wg sync.WaitGroup
	for g := 0; g < loaders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := int64(0); k < keys; k++ {
				mine := new(int)
				got[g][k], _ = c.GetOrPut(k, mine)
			}
		}(g)
	}
	wg.Wait()
	for k := 0; k < keys; k++ {
		stored, ok := c.Get(int64(k))
		if !ok {
			t.Fatalf("key %d missing", k)
		}
		for g := 0; g < loaders; g++ {
			if got[g][k] != stored {
				t.Fatalf("loader %d of key %d holds a copy other than the stored one", g, k)
			}
		}
	}
}

// TestHammer mixes every operation across shards; run under -race
// (make race). Afterwards the books must balance: Bytes equals the sum
// over the entries still held, and both budgets hold.
func TestHammer(t *testing.T) {
	const maxEntries, maxBytes = 64, 4096
	c := New(Config[string, int]{Shards: 4, MaxEntries: maxEntries, MaxBytes: maxBytes, TTL: time.Millisecond,
		Hash: HashString, Size: func(_ string, v int) int64 { return int64(v) }})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4000; i++ {
				k := fmt.Sprint("k", (i*7+g*13)%200)
				switch (i + g) % 11 {
				case 0, 1, 2, 3:
					c.Put(k, 1+i%300)
				case 4:
					c.GetOrPut(k, 1+i%50)
				case 5:
					c.DeleteFunc(func(s string) bool { return strings.HasSuffix(s, "7") })
				case 6:
					if i%1000 == 0 {
						c.Clear()
					}
					c.Len()
					c.Bytes()
				default:
					c.Get(k)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > maxEntries || c.Bytes() > maxBytes {
		t.Fatalf("over budget: %d entries, %d bytes", c.Len(), c.Bytes())
	}
	var entries int
	var bytes int64
	for i := range c.shards {
		sh := &c.shards[i]
		for n := sh.root.next; n != &sh.root; n = n.next {
			if sh.m[n.key] != n {
				t.Fatalf("list node %q not in its shard's map", n.key)
			}
			entries++
			bytes += n.size
		}
	}
	if entries != c.Len() || bytes != c.Bytes() {
		t.Fatalf("list holds %d entries / %d bytes, cache reports %d / %d", entries, bytes, c.Len(), c.Bytes())
	}
}
