package exec_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/optimizer"
)

// TestEvaluateContextCancelMidFlight proves a cancelled context
// terminates an in-flight evaluation: cancelling inside the first emit
// means no further result is ever emitted (the executor re-polls the
// context exactly at each emission) and the ctx error surfaces.
func TestEvaluateContextCancelMidFlight(t *testing.T) {
	s := fig1System(t, core.Options{Z: 8})
	plans, err := s.Plans([]string{"us", "vcr"})
	if err != nil {
		t.Fatal(err)
	}
	ex := &exec.Executor{Store: s.Store, TSS: s.TSS}
	total := 0
	for _, p := range plans {
		if err := ex.Evaluate(p, func(exec.Result) bool { total++; return true }); err != nil {
			t.Fatal(err)
		}
	}
	if total < 2 {
		t.Skipf("need ≥2 results to observe early termination, have %d", total)
	}
	for _, strat := range []exec.Strategy{exec.NestedLoop, exec.HashJoin} {
		ctx, cancel := context.WithCancel(context.Background())
		emitted := 0
		sawCancel := false
		for _, p := range plans {
			err := ex.RunContext(ctx, p, strat, func(exec.Result) bool {
				emitted++
				cancel()
				return true
			})
			if err != nil {
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("strategy %d: err = %v", strat, err)
				}
				sawCancel = true
			}
		}
		if emitted >= total {
			t.Fatalf("strategy %d: emitted %d of %d results after cancellation", strat, emitted, total)
		}
		if emitted > 1 {
			t.Fatalf("strategy %d: %d results emitted after cancel (want ≤1)", strat, emitted)
		}
		if !sawCancel {
			t.Fatalf("strategy %d: cancellation never surfaced as an error", strat)
		}
		cancel()
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	s := fig1System(t, core.Options{Z: 8})
	plans, err := s.Plans([]string{"us", "vcr"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ex := &exec.Executor{Store: s.Store, TSS: s.TSS}
	n := 0
	err = ex.RunContext(ctx, plans[0], exec.NestedLoop, func(exec.Result) bool { n++; return true })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n != 0 {
		t.Fatalf("pre-cancelled context emitted %d results", n)
	}
}

func TestRunPlansCancelled(t *testing.T) {
	s := fig1System(t, core.Options{Z: 8})
	plans, err := s.Plans([]string{"us", "vcr"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ex := &exec.Executor{Store: s.Store, TSS: s.TSS}
	rs, err := exec.RunPlans(ctx, ex, plans, 10, exec.NestedLoop)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(rs) != 0 {
		t.Fatalf("pre-cancelled top-k returned %d results", len(rs))
	}
}

// TestRunPlansCapsAndSkips pins the plan loop's contract: every k > 0
// answer is the first k of the full run, Ords name the plan's index in
// the given list, and a nil plan is skipped without renumbering the
// plans after it.
func TestRunPlansCapsAndSkips(t *testing.T) {
	s := fig1System(t, core.Options{Z: 8})
	plans, err := s.Plans([]string{"us", "vcr"})
	if err != nil {
		t.Fatal(err)
	}
	ex := &exec.Executor{Store: s.Store, TSS: s.TSS}
	ctx := context.Background()
	all, err := exec.RunPlans(ctx, ex, plans, 0, exec.NestedLoop)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= len(all)+1; k++ {
		got, err := exec.RunPlans(ctx, ex, plans, k, exec.NestedLoop)
		if err != nil {
			t.Fatal(err)
		}
		want := all[:min(k, len(all))]
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d results, want %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i].Ord != want[i].Ord || got[i].Score != want[i].Score {
				t.Fatalf("k=%d: result %d is (%d, %x), want (%d, %x)", k, i, got[i].Score, got[i].Ord, want[i].Score, want[i].Ord)
			}
		}
	}
	holed := append([]*optimizer.Plan{nil}, plans...)
	shifted, err := exec.RunPlans(ctx, ex, holed, 0, exec.NestedLoop)
	if err != nil {
		t.Fatal(err)
	}
	if len(shifted) != len(all) {
		t.Fatalf("with a nil plan in front: %d results, want %d", len(shifted), len(all))
	}
	for i, r := range shifted {
		if r.Ord != all[i].Ord+1<<32 {
			t.Fatalf("result %d has Ord %x, want %x (plan index kept)", i, r.Ord, all[i].Ord+1<<32)
		}
	}
}
