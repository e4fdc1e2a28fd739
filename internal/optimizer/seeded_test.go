package optimizer_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/optimizer"
)

func TestPlanSeeded(t *testing.T) {
	s := fig1System(t, core.Options{Z: 8})
	nets, err := s.Networks(context.Background(), []string{"us", "vcr"})
	if err != nil {
		t.Fatal(err)
	}
	opt := &optimizer.Optimizer{
		TSS: s.TSS, Store: s.Store, Index: s.Index, Stats: s.Stats,
		Fragments: s.Decomp.Fragments, MaxJoins: s.Opts.B,
	}
	for _, tn := range nets {
		if tn.Size() == 0 {
			continue
		}
		for seed := range tn.Occs {
			p, err := opt.PlanSeeded(tn, seed)
			if err != nil {
				t.Fatalf("seed %d of %s: %v", seed, tn, err)
			}
			if !p.Steps[0].Seed || p.Steps[0].Occ != seed {
				t.Fatalf("seed %d not honored: %+v", seed, p.Steps[0])
			}
		}
		if _, err := opt.PlanSeeded(tn, -1); err == nil {
			t.Fatal("negative seed accepted")
		}
		if _, err := opt.PlanSeeded(tn, len(tn.Occs)); err == nil {
			t.Fatal("out-of-range seed accepted")
		}
		break
	}
}

// Seeded plans pre-bound at the seed produce exactly the results whose
// seed binding matches — regardless of which occurrence seeds.
func TestPlanSeededEquivalence(t *testing.T) {
	s := fig1System(t, core.Options{Z: 8})
	nets, err := s.Networks(context.Background(), []string{"us", "vcr"})
	if err != nil {
		t.Fatal(err)
	}
	opt := &optimizer.Optimizer{
		TSS: s.TSS, Store: s.Store, Index: s.Index, Stats: s.Stats,
		Fragments: s.Decomp.Fragments, MaxJoins: s.Opts.B,
	}
	ex := &exec.Executor{Store: s.Store, TSS: s.TSS}
	checked := 0
	for _, tn := range nets {
		if tn.Size() == 0 {
			continue
		}
		base, err := opt.Plan(tn)
		if err != nil {
			t.Fatal(err)
		}
		var ref []exec.Result
		if err := ex.Evaluate(base, func(r exec.Result) bool { ref = append(ref, r); return true }); err != nil {
			t.Fatal(err)
		}
		if len(ref) == 0 {
			continue
		}
		for seed := range tn.Occs {
			sp, err := opt.PlanSeeded(tn, seed)
			if err != nil {
				t.Fatal(err)
			}
			// Collect results per seed binding and compare with ref.
			want := map[string]bool{}
			for _, r := range ref {
				want[r.Key()] = true
			}
			got := map[string]bool{}
			for _, r := range ref {
				rs, _, err := firstAll(ex, sp, seed, r.Bind[seed])
				if err != nil {
					t.Fatal(err)
				}
				for _, x := range rs {
					got[x.Key()] = true
				}
			}
			for k := range want {
				if !got[k] {
					t.Fatalf("seed %d of %s misses result %s", seed, tn, k)
				}
			}
		}
		checked++
		if checked >= 2 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("no networks with results; vacuous")
	}
}

func firstAll(ex *exec.Executor, p *optimizer.Plan, occ int, to int64) ([]exec.Result, bool, error) {
	var out []exec.Result
	err := ex.EvaluateConstrained(p, exec.Constraint{PreBind: map[int]int64{occ: to}}, func(r exec.Result) bool {
		out = append(out, r)
		return true
	})
	return out, len(out) > 0, err
}

// PlanSeededVariants returns the min-join plan plus, when distinct, the
// single-edge plan; both are executable and equivalent.
func TestPlanSeededVariants(t *testing.T) {
	s := fig1System(t, core.Options{Z: 8})
	nets, err := s.Networks(context.Background(), []string{"us", "vcr"})
	if err != nil {
		t.Fatal(err)
	}
	opt := &optimizer.Optimizer{
		TSS: s.TSS, Store: s.Store, Index: s.Index, Stats: s.Stats,
		Fragments: s.Decomp.Fragments, MaxJoins: -1,
	}
	ex := &exec.Executor{Store: s.Store, TSS: s.TSS}
	sawTwo := false
	for _, tn := range nets {
		if tn.Size() < 2 {
			continue
		}
		vs, err := opt.PlanSeededVariants(tn, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(vs) == 0 {
			t.Fatalf("no variants for %s", tn)
		}
		if len(vs) == 2 {
			sawTwo = true
			if vs[0].Joins == vs[1].Joins {
				t.Fatalf("variants with equal join counts returned: %d", vs[0].Joins)
			}
			// The single-edge variant uses exactly size pieces.
			alt := vs[1]
			if alt.Joins != tn.Size()-1 {
				t.Fatalf("alt variant has %d joins for size %d", alt.Joins, tn.Size())
			}
			// Same result sets under a shared pre-binding domain.
			count := func(p *optimizer.Plan) int {
				n := 0
				if err := ex.Evaluate(p, func(exec.Result) bool { n++; return true }); err != nil {
					t.Fatal(err)
				}
				return n
			}
			if count(vs[0]) != count(vs[1]) {
				t.Fatalf("variants disagree on %s", tn)
			}
		}
	}
	if !sawTwo {
		t.Fatal("no network yielded two variants; vacuous")
	}
}
