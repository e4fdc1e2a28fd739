package exec_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exec"
)

func fig1System(t *testing.T, opts core.Options) *core.System {
	t.Helper()
	ds, err := datagen.TPCHFigure1()
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.LoadPrepared(&core.Prepared{Schema: ds.Schema, TSS: ds.TSS, Data: ds.Data, Obj: ds.Obj}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestLookupCacheBasics(t *testing.T) {
	c := exec.NewLookupCache(0)
	if h, m := c.Stats(); h != 0 || m != 0 {
		t.Fatalf("fresh cache stats = %d/%d", h, m)
	}
	s := fig1System(t, core.Options{Z: 8, CacheSize: 0})
	if _, err := s.QueryAll([]string{"us", "vcr"}); err != nil {
		t.Fatal(err)
	}
}

func TestCacheReducesIO(t *testing.T) {
	// The optimized algorithm must issue fewer page reads than the naive
	// one for a query with repeated sub-lookups (the Figure 2 MVD data:
	// both lineitems connect to the same TV part).
	cached := fig1System(t, core.Options{Z: 8, CacheSize: 0})
	naive := fig1System(t, core.Options{Z: 8, CacheSize: -1})

	cached.Store.ResetStats()
	if _, err := cached.QueryAll([]string{"us", "vcr"}); err != nil {
		t.Fatal(err)
	}
	c := cached.Store.Stats.Snapshot()

	naive.Store.ResetStats()
	if _, err := naive.QueryAll([]string{"us", "vcr"}); err != nil {
		t.Fatal(err)
	}
	n := naive.Store.Stats.Snapshot()

	if c.Lookups >= n.Lookups {
		t.Fatalf("cached lookups %d >= naive lookups %d", c.Lookups, n.Lookups)
	}
}

func TestCacheCapacity(t *testing.T) {
	c := exec.NewLookupCache(1)
	// Capacity is honored indirectly: after filling, puts are dropped but
	// correctness is preserved (exercised through a query).
	s := fig1System(t, core.Options{Z: 8, CacheSize: 1})
	a, err := s.QueryAll([]string{"us", "vcr"})
	if err != nil {
		t.Fatal(err)
	}
	s2 := fig1System(t, core.Options{Z: 8, CacheSize: -1})
	b, err := s2.QueryAll([]string{"us", "vcr"})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("tiny cache changed results: %d vs %d", len(a), len(b))
	}
	_ = c
}

func TestResultsAreDistinctTrees(t *testing.T) {
	s := fig1System(t, core.Options{Z: 8})
	rs, err := s.QueryAll([]string{"tv", "vcr"})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range rs {
		// No result may bind the same target object twice.
		set := map[int64]bool{}
		for _, to := range r.Bind {
			if set[to] {
				t.Fatalf("result binds TO %d twice: %v", to, r.Bind)
			}
			set[to] = true
		}
		// No duplicate results.
		if k := r.Key(); seen[k] {
			t.Fatalf("duplicate result %s", k)
		} else {
			seen[k] = true
		}
	}
}

func TestEvaluateEarlyStop(t *testing.T) {
	s := fig1System(t, core.Options{Z: 8})
	plans, err := s.Plans([]string{"us", "vcr"})
	if err != nil {
		t.Fatal(err)
	}
	ex := &exec.Executor{Store: s.Store, TSS: s.TSS, Index: s.Index}
	n := 0
	for _, p := range plans {
		if err := ex.Evaluate(p.Plan, func(exec.Result) bool { n++; return false }); err != nil {
			t.Fatal(err)
		}
	}
	if n != len(plansWithResults(t, s, plans)) {
		t.Fatalf("early stop produced %d results across %d plans", n, len(plans))
	}
}

func plansWithResults(t *testing.T, s *core.System, plans []exec.Planned) []int {
	t.Helper()
	ex := &exec.Executor{Store: s.Store, TSS: s.TSS, Index: s.Index}
	var out []int
	for i, p := range plans {
		found := false
		if err := ex.Evaluate(p.Plan, func(exec.Result) bool { found = true; return false }); err != nil {
			t.Fatal(err)
		}
		if found {
			out = append(out, i)
		}
	}
	return out
}

// TestTopKSerialLookups: top-k runs its plans on the caller's goroutine
// in canonical order, so the work a query does — the relation probes it
// issues — is the same on every run, even with spare processors a
// speculative pool would have used. The results are the K smallest in
// canonical order.
func TestTopKSerialLookups(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	s := fig1System(t, core.Options{Z: 8})
	all, err := s.QueryAll([]string{"us", "vcr"})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 5, 100} {
		var want int64 = -1
		for run := 0; run < 20; run++ {
			before := s.Store.Stats.Snapshot().Lookups
			rs, err := s.Query([]string{"us", "vcr"}, k)
			if err != nil {
				t.Fatal(err)
			}
			lookups := s.Store.Stats.Snapshot().Lookups - before
			if want < 0 {
				want = lookups
			} else if lookups != want {
				t.Fatalf("k=%d run %d: %d lookups, first run %d", k, run, lookups, want)
			}
			if n := min(k, len(all)); len(rs) != n {
				t.Fatalf("k=%d: got %d results, want %d", k, len(rs), n)
			}
			for i := 1; i < len(rs); i++ {
				if !exec.OrdLess(rs[i-1], rs[i]) {
					t.Fatalf("k=%d: results out of canonical order", k)
				}
			}
		}
	}
	if rs, _ := s.Query([]string{"us", "vcr"}, 0); rs != nil {
		t.Fatal("k=0 returned results")
	}
}

func TestConstrainedEvaluation(t *testing.T) {
	s := fig1System(t, core.Options{Z: 8})
	plans, err := s.Plans([]string{"us", "vcr"})
	if err != nil {
		t.Fatal(err)
	}
	ex := &exec.Executor{Store: s.Store, TSS: s.TSS, Index: s.Index}
	for _, pp := range plans {
		p := pp.Plan
		var base []exec.Result
		if err := ex.Evaluate(p, func(r exec.Result) bool {
			base = append(base, r)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(base) == 0 {
			continue
		}
		// Pre-binding occurrence 0 to its value in base[0] must return a
		// subset of base, all with that binding.
		want := base[0].Bind[0]
		var got []exec.Result
		err := ex.EvaluateConstrained(p, exec.Constraint{PreBind: map[int]int64{0: want}}, func(r exec.Result) bool {
			got = append(got, r)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 || len(got) > len(base) {
			t.Fatalf("constrained returned %d of %d", len(got), len(base))
		}
		for _, r := range got {
			if r.Bind[0] != want {
				t.Fatalf("constraint violated: %v", r.Bind)
			}
		}
		// Restricting to an empty set yields nothing.
		empty := make([]map[int64]bool, len(p.Net.Occs))
		empty[0] = map[int64]bool{}
		n := 0
		if err := ex.EvaluateConstrained(p, exec.Constraint{Restrict: empty}, func(exec.Result) bool {
			n++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if n != 0 {
			t.Fatalf("empty restriction returned %d results", n)
		}
		break
	}
}

func TestSortedSet(t *testing.T) {
	got := exec.SortedSet(map[int64]bool{5: true, 1: true, 3: true})
	want := []int64{1, 3, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SortedSet = %v", got)
		}
	}
	if exec.SortedSet(nil) == nil {
		// empty-but-non-nil is fine; nil is fine too
		return
	}
}
