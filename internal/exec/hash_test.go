package exec_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
)

// EvaluateHash must agree with Evaluate on every plan, including plans
// whose covers overlap (CheckPos) and plans with multiple pieces.
func TestHashJoinMatchesNestedLoop(t *testing.T) {
	for _, preset := range []core.DecompositionPreset{core.PresetXKeyword, core.PresetMinNClustNIndx} {
		s := fig1System(t, core.Options{Z: 8, Decomposition: preset})
		for _, q := range [][]string{{"us", "vcr"}, {"john", "tv"}, {"tv", "vcr"}, {"mike", "dvd"}} {
			plans, err := s.Plans(q)
			if err != nil {
				t.Fatal(err)
			}
			ex := &exec.Executor{Store: s.Store, TSS: s.TSS}
			for _, pp := range plans {
				keys := func(rs []exec.Result) map[string]bool {
					m := make(map[string]bool)
					for _, r := range rs {
						m[r.Key()] = true
					}
					return m
				}
				var nl, hj []exec.Result
				if err := ex.Evaluate(pp.Plan, func(r exec.Result) bool { nl = append(nl, r); return true }); err != nil {
					t.Fatal(err)
				}
				if err := ex.EvaluateHash(pp.Plan, func(r exec.Result) bool { hj = append(hj, r); return true }); err != nil {
					t.Fatal(err)
				}
				a, b := keys(nl), keys(hj)
				if len(a) != len(b) || len(a) != len(nl) || len(b) != len(hj) {
					t.Fatalf("%s/%v: nested-loop %d results, hash %d (plan %s)", preset, q, len(nl), len(hj), pp.Plan.Net)
				}
				for k := range a {
					if !b[k] {
						t.Fatalf("%s/%v: result %s missing from hash join", preset, q, k)
					}
				}
			}
		}
	}
}

func TestHashJoinEarlyStop(t *testing.T) {
	s := fig1System(t, core.Options{Z: 8})
	plans, err := s.Plans([]string{"us", "vcr"})
	if err != nil {
		t.Fatal(err)
	}
	ex := &exec.Executor{Store: s.Store, TSS: s.TSS}
	for _, pp := range plans {
		n := 0
		if err := ex.EvaluateHash(pp.Plan, func(exec.Result) bool { n++; return false }); err != nil {
			t.Fatal(err)
		}
		if n > 1 {
			t.Fatalf("early stop emitted %d results", n)
		}
	}
}

func TestAllAndFirst(t *testing.T) {
	s := fig1System(t, core.Options{Z: 8})
	plans, err := s.Plans([]string{"us", "vcr"})
	if err != nil {
		t.Fatal(err)
	}
	ex := &exec.Executor{Store: s.Store, TSS: s.TSS}
	sawResults := false
	for _, pp := range plans {
		all, err := ex.All(pp.Plan)
		if err != nil {
			t.Fatal(err)
		}
		r, found, err := ex.First(pp.Plan, exec.Constraint{})
		if err != nil {
			t.Fatal(err)
		}
		if found != (len(all) > 0) {
			t.Fatalf("First found=%v but All returned %d", found, len(all))
		}
		if found {
			sawResults = true
			if r.Key() != all[0].Key() {
				t.Fatalf("First returned %s, All[0] is %s", r.Key(), all[0].Key())
			}
		}
	}
	if !sawResults {
		t.Fatal("no plan produced results; test is vacuous")
	}
}

func TestStrategySelection(t *testing.T) {
	indexed := fig1System(t, core.Options{Z: 8, Decomposition: core.PresetXKeyword})
	bare := fig1System(t, core.Options{Z: 8, Decomposition: core.PresetMinNClustNIndx})
	for name, s := range map[string]*core.System{"indexed": indexed, "bare": bare} {
		plans, err := s.Plans([]string{"us", "vcr"})
		if err != nil {
			t.Fatal(err)
		}
		ex := &exec.Executor{Store: s.Store, TSS: s.TSS}
		for _, pp := range plans {
			n := 0
			if err := ex.Run(pp.Plan, exec.AutoStrategy, func(exec.Result) bool { n++; return true }); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
	// Strategy names are stable API for plan explanation output.
	if exec.NestedLoop == exec.HashJoin || exec.HashJoin == exec.AutoStrategy {
		t.Fatal("strategy constants collide")
	}
}
