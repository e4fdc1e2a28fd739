package exec_test

import (
	"hash/crc64"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/decomp"
	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/relstore"
)

// storeChecksum folds every tuple of every relation, in physical order.
func storeChecksum(s *relstore.Store) uint64 {
	tab := crc64.MakeTable(crc64.ECMA)
	var sum uint64
	var buf [8]byte
	for _, name := range s.Relations() {
		sum = crc64.Update(sum, tab, []byte(name))
		s.Relation(name).Scan(func(row relstore.Row) bool {
			for _, v := range row {
				for i := range buf {
					buf[i] = byte(v >> (8 * i))
				}
				sum = crc64.Update(sum, tab, buf[:])
			}
			return true
		})
	}
	return sum
}

// Lookups hand the executor views into the store's own storage, shared
// by every worker of every concurrent query (and by the lookup cache).
// Nothing may write through one: concurrent top-k queries must return
// exactly what a serial run returns and leave every tuple as it was.
// Run under -race, which also reports any write to the shared arrays.
func TestConcurrentTopKSharesReadOnlyViews(t *testing.T) {
	s := tpchSystem(t)
	queries := [][]string{{"john", "radio"}, {"john", "vcr"}, {"mike", "tv"}, {"us", "dvd"}, {"mike", "tuner"}}
	ks := []int{1, 3, 10}
	before := storeChecksum(s.Store)
	type key struct{ q, k int }
	want := make(map[key][]exec.Result)
	for qi, q := range queries {
		for _, k := range ks {
			rs, err := s.Query(q, k)
			if err != nil {
				t.Fatal(err)
			}
			want[key{qi, k}] = rs
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				qi, k := (w+i)%len(queries), ks[(w*3+i)%len(ks)]
				rs, err := s.Query(queries[qi], k)
				if err != nil {
					t.Errorf("%v k=%d: %v", queries[qi], k, err)
					return
				}
				if !sameResults(rs, want[key{qi, k}]) {
					t.Errorf("%v k=%d: concurrent results differ from the serial run", queries[qi], k)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if after := storeChecksum(s.Store); after != before {
		t.Fatalf("store contents changed under concurrent queries: crc %x -> %x", before, after)
	}
}

// sameResults compares result lists by what a caller sees: network,
// bindings, score and canonical order key.
func sameResults(a, b []exec.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key() != b[i].Key() || a[i].Score != b[i].Score || a[i].Ord != b[i].Ord || !reflect.DeepEqual(a[i].Bind, b[i].Bind) {
			return false
		}
	}
	return true
}

// The nested-loop executor allocates on its emit path only: evaluating a
// plan to completion costs one Bind per result (plus the amortized
// growth of the caller's own result slice, which this emit avoids) — no
// row copies, no per-step frames, no per-probe sorted filters.
func TestEvaluateAllocatesOnlyResults(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool deliberately drops items under -race")
	}
	s := fig1System(t, core.Options{Z: 8})
	plans, err := s.Plans([]string{"us", "vcr"})
	if err != nil {
		t.Fatal(err)
	}
	ex := &exec.Executor{Store: s.Store, TSS: s.TSS}
	for i, pp := range plans {
		results := 0
		emit := func(exec.Result) bool { results++; return true }
		if err := ex.Evaluate(pp, emit); err != nil { // warm: pool, scratch
			t.Fatal(err)
		}
		perRun := results
		allocs := testing.AllocsPerRun(20, func() { _ = ex.Evaluate(pp, emit) })
		if allocs > float64(perRun) {
			t.Errorf("plan %d: %v allocs per evaluation for %d results", i, allocs, perRun)
		}
	}
}

// A lookup cache holds views, and a view of a factorized relation (a
// two-step MVD fragment) is a range of the relation's pairs, read
// through an iterator of its own: it must read the same rows however
// many probes and reads of other views come after it. Title-word pairs
// on DBLP reach paper<confyear>paper and the other MVD fragments; their
// plans run twice through one cached executor, the second run reading
// views cached during the first, and must return the results, in the
// order, that an executor without a cache returns.
func TestCachedFactorizedViewsStayValid(t *testing.T) {
	ds, err := datagen.DBLP(datagen.DefaultDBLPParams())
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.LoadPrepared(ds, core.Options{Z: 8})
	if err != nil {
		t.Fatal(err)
	}
	words := []string{"keyword", "xml", "views", "web"}
	var queries [][]*optimizer.Plan
	mvdSteps := 0
	for i, a := range words {
		for _, b := range words[i+1:] {
			plans, err := s.Plans([]string{a, b})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range plans {
				for _, st := range p.Steps {
					if !st.Seed && st.Piece.Frag.Size() == 2 && st.Piece.Frag.Classify(s.TSS) == decomp.ClassMVD {
						mvdSteps++
					}
				}
			}
			queries = append(queries, plans)
		}
	}
	if mvdSteps == 0 {
		t.Fatal("no plan probes an MVD fragment; test is vacuous")
	}
	plain := &exec.Executor{Store: s.Store, TSS: s.TSS, NoPushdown: true}
	cached := &exec.Executor{Store: s.Store, TSS: s.TSS, NoPushdown: true, Cache: exec.NewLookupCache(0)}
	// first returns the first 100 results of every plan.
	first := func(ex *exec.Executor, plans []*optimizer.Plan) []string {
		var out []string
		for _, p := range plans {
			n := 0
			if err := ex.Evaluate(p, func(r exec.Result) bool {
				out = append(out, r.Key())
				n++
				return n < 100
			}); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	for run := 0; run < 2; run++ {
		for qi, plans := range queries {
			want, got := first(plain, plans), first(cached, plans)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("run %d query %d: cached executor returned %d results, plain %d", run, qi, len(got), len(want))
			}
		}
	}
	if hits, _ := cached.Cache.Stats(); hits == 0 {
		t.Fatal("no lookup was served from the cache")
	}
}
