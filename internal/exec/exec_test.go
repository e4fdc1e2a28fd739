package exec_test

import (
	"runtime"
	"slices"
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

// evalAll evaluates every plan of a query to completion through ex with
// the nested loop, so a cached executor's memo is exercised.
func evalAll(t *testing.T, ex *exec.Executor, plans []exec.Planned) []exec.Result {
	t.Helper()
	var out []exec.Result
	for _, p := range plans {
		if err := ex.Evaluate(p.Plan, func(r exec.Result) bool {
			out = append(out, r)
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func resultKeys(rs []exec.Result) []string {
	keys := make([]string, len(rs))
	for i, r := range rs {
		keys[i] = r.Key()
	}
	return keys
}

func TestLookupCacheBasics(t *testing.T) {
	c := exec.NewLookupCache(0)
	if h, m := c.Stats(); h != 0 || m != 0 {
		t.Fatalf("fresh cache stats = %d/%d", h, m)
	}
	s := fig1System(t, core.Options{Z: 8})
	plans, err := s.Plans([]string{"us", "vcr"})
	if err != nil {
		t.Fatal(err)
	}
	evalAll(t, &exec.Executor{Store: s.Store, TSS: s.TSS, Cache: c}, plans)
	if h, m := c.Stats(); h+m == 0 {
		t.Fatal("a query through a cached executor left no cache traffic")
	}
}

func TestCacheReducesIO(t *testing.T) {
	// The optimized algorithm must issue fewer lookups than the naive
	// one for a query with repeated sub-lookups (the Figure 2 MVD data:
	// both lineitems connect to the same TV part).
	s := fig1System(t, core.Options{Z: 8})
	plans, err := s.Plans([]string{"us", "vcr"})
	if err != nil {
		t.Fatal(err)
	}
	lookups := func(cache *exec.LookupCache) int64 {
		s.Store.ResetStats()
		evalAll(t, &exec.Executor{Store: s.Store, TSS: s.TSS, Cache: cache}, plans)
		return s.Store.Stats.Snapshot().Lookups
	}
	if c, n := lookups(exec.NewLookupCache(0)), lookups(nil); c >= n {
		t.Fatalf("cached lookups %d >= naive lookups %d", c, n)
	}
}

// A capacity-1 cache drops every put after the first, so most probes
// are re-sent; the results must still equal the naive executor's, in
// the same order.
func TestCacheCapacity(t *testing.T) {
	s := fig1System(t, core.Options{Z: 8})
	plans, err := s.Plans([]string{"us", "vcr"})
	if err != nil {
		t.Fatal(err)
	}
	tiny := exec.NewLookupCache(1)
	a := resultKeys(evalAll(t, &exec.Executor{Store: s.Store, TSS: s.TSS, Cache: tiny}, plans))
	b := resultKeys(evalAll(t, &exec.Executor{Store: s.Store, TSS: s.TSS}, plans))
	if len(a) == 0 || !slices.Equal(a, b) {
		t.Fatalf("tiny cache changed results: %d vs %d", len(a), len(b))
	}
	if h, m := tiny.Stats(); m < 2 {
		t.Fatalf("tiny cache stats = %d/%d, want repeated misses", h, m)
	}
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
	ex := &exec.Executor{Store: s.Store, TSS: s.TSS}
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
	ex := &exec.Executor{Store: s.Store, TSS: s.TSS}
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
	ex := &exec.Executor{Store: s.Store, TSS: s.TSS}
	checked := false
	for _, pp := range plans {
		p := pp.Plan
		var base []exec.Result
		if err := ex.Evaluate(p, func(r exec.Result) bool {
			base = append(base, r)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(base) == 0 || len(p.Net.Occs) < 2 {
			continue
		}
		constrained := func(c exec.Constraint) []exec.Result {
			t.Helper()
			var got []exec.Result
			if err := ex.EvaluateConstrained(p, c, func(r exec.Result) bool {
				got = append(got, r)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			return got
		}
		// Pre-binding occurrence 0 to its value in base[0] must return a
		// subset of base, all with that binding.
		want := base[0].Bind[0]
		got := constrained(exec.Constraint{PreBind: map[int]int64{0: want}})
		if len(got) == 0 || len(got) > len(base) {
			t.Fatalf("constrained returned %d of %d", len(got), len(base))
		}
		for _, r := range got {
			if r.Bind[0] != want {
				t.Fatalf("constraint violated: %v", r.Bind)
			}
		}
		// PreBind and Restrict together: the last occurrence restricted to
		// the TO it takes in base[0] and a TO no result binds there must
		// return exactly base's results agreeing with base[0] on both.
		last := len(p.Net.Occs) - 1
		v := base[0].Bind[last]
		restrict := make([][]int64, len(p.Net.Occs))
		restrict[last] = []int64{-1, v}
		var both []string
		for _, r := range base {
			if r.Bind[0] == want && r.Bind[last] == v {
				both = append(both, r.Key())
			}
		}
		gotBoth := resultKeys(constrained(exec.Constraint{PreBind: map[int]int64{0: want}, Restrict: restrict}))
		if !slices.Equal(gotBoth, both) {
			t.Fatalf("PreBind+Restrict = %v, want %v", gotBoth, both)
		}
		// Restricting to an empty set yields nothing.
		empty := make([][]int64, len(p.Net.Occs))
		empty[0] = []int64{}
		if n := len(constrained(exec.Constraint{Restrict: empty})); n != 0 {
			t.Fatalf("empty restriction returned %d results", n)
		}
		checked = true
		break
	}
	if !checked {
		t.Fatal("no multi-occurrence plan with results")
	}
}
