package optimizer_test

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/kwindex"
	"repro/internal/optimizer"
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

func TestPlanStructure(t *testing.T) {
	s := fig1System(t, core.Options{Z: 8, B: 2})
	plans, err := s.Plans([]string{"john", "vcr"})
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) == 0 {
		t.Fatal("no plans")
	}
	for _, pp := range plans {
		p := pp.Plan
		if !p.Steps[0].Seed {
			t.Fatalf("first step is not a seed: %+v", p.Steps[0])
		}
		bound := map[int]bool{p.Steps[0].Occ: true}
		for _, st := range p.Steps[1:] {
			if st.Seed {
				t.Fatal("second seed step")
			}
			// Probe occurrence must already be bound.
			if !bound[st.Piece.Occs[st.ProbePos]] {
				t.Fatalf("probe occurrence unbound in %+v", st)
			}
			for _, pos := range st.CheckPos {
				if !bound[st.Piece.Occs[pos]] {
					t.Fatalf("check occurrence unbound in %+v", st)
				}
			}
			for _, pos := range st.NewPos {
				if bound[st.Piece.Occs[pos]] {
					t.Fatalf("new occurrence already bound in %+v", st)
				}
				bound[st.Piece.Occs[pos]] = true
			}
		}
		// Every occurrence bound exactly once.
		if len(bound) != len(p.Net.Occs) {
			t.Fatalf("%d of %d occurrences bound", len(bound), len(p.Net.Occs))
		}
		// Join budget respected (Figure 1's graph is small enough for
		// every network to be coverable within B).
		if p.Joins > s.Opts.B {
			t.Fatalf("plan uses %d joins, budget %d (net %s)", p.Joins, s.Opts.B, p.Net)
		}
	}
}

func TestSeedHasNearSmallestContainingList(t *testing.T) {
	s := fig1System(t, core.Options{Z: 8})
	// The seed is the keyword occurrence with the smallest containing
	// list, except that cache-profitable occurrences may win when lists
	// are within 2x (§6's VCR-outermost rule). Either way the seed's
	// list never exceeds twice the minimum.
	plans, err := s.Plans([]string{"john", "vcr"})
	if err != nil {
		t.Fatal(err)
	}
	for _, pp := range plans {
		p := pp.Plan
		seed := p.Steps[0].Occ
		minList := -1
		for _, f := range p.Filters {
			if f == nil {
				continue
			}
			if minList < 0 || len(f) < minList {
				minList = len(f)
			}
		}
		if p.Filters[seed] == nil {
			t.Fatalf("seed %d has no keyword filter (network %s)", seed, p.Net)
		}
		if len(p.Filters[seed]) > 2*minList {
			t.Fatalf("seed list %d exceeds 2x the minimum %d (network %s)",
				len(p.Filters[seed]), minList, p.Net)
		}
	}
}

func TestFiltersIntersection(t *testing.T) {
	s := fig1System(t, core.Options{Z: 8})
	// "set" and "dvd" co-occur in the product description; a query for
	// the phrase-like pair must intersect at the product TO.
	plans, err := s.Plans([]string{"set", "dvd"})
	if err != nil {
		t.Fatal(err)
	}
	// The size-0 network (both keywords on one node) must exist and its
	// filter must be a single TO (the product).
	found := false
	for _, pp := range plans {
		p := pp.Plan
		if p.Net.Size() == 0 && len(p.Net.Occs[0].Keywords) == 2 {
			found = true
			if got := len(p.Filters[0]); got != 1 {
				t.Fatalf("intersection filter size = %d, want 1", got)
			}
		}
	}
	if !found {
		t.Fatal("size-0 two-keyword network not planned")
	}
}

func TestPlanErrorPaths(t *testing.T) {
	s := fig1System(t, core.Options{Z: 8})
	o := &optimizer.Optimizer{
		TSS:       s.TSS,
		Store:     s.Store,
		Index:     s.Index,
		Stats:     s.Stats,
		Fragments: nil, // nothing to cover with
		MaxJoins:  2,
	}
	nets, err := s.Networks([]string{"john", "vcr"})
	if err != nil || len(nets) == 0 {
		t.Fatalf("networks: %v", err)
	}
	var multi bool
	for _, tn := range nets {
		if tn.Size() > 0 {
			if _, err := o.Plan(tn); err == nil {
				t.Fatalf("empty fragment set covered %s", tn)
			}
			multi = true
			break
		}
	}
	if !multi {
		t.Fatal("no multi-occurrence network to test")
	}
}

func TestPlanJoinsFallback(t *testing.T) {
	// With B=0 most networks cannot be covered by single-edge fragments
	// alone, so the planner must fall back to more joins rather than fail.
	s := fig1System(t, core.Options{Z: 8, B: 2, Decomposition: core.PresetMinClust})
	opt := &optimizer.Optimizer{
		TSS:       s.TSS,
		Store:     s.Store,
		Index:     s.Index,
		Stats:     s.Stats,
		Fragments: s.Decomp.Fragments,
		MaxJoins:  0,
	}
	nets, err := s.Networks([]string{"john", "vcr"})
	if err != nil {
		t.Fatal(err)
	}
	for _, tn := range nets {
		if tn.Size() < 2 {
			continue
		}
		p, err := opt.Plan(tn)
		if err != nil {
			t.Fatalf("fallback failed for %s: %v", tn, err)
		}
		if p.Joins != tn.Size()-1 {
			t.Fatalf("minimal cover of %s used %d joins, want %d", tn, p.Joins, tn.Size()-1)
		}
	}
}

// Every filter of every plan of the workload queries is the ascending
// form of the keyword TO sets the master index reports: the merge
// intersection of its keywords' sets, nil for a free occurrence, and
// non-nil but empty when two keywords on one occurrence share no TO
// (two authors' names on one name node).
func TestFiltersMatchIndexTOSets(t *testing.T) {
	w, err := experiments.NewWorkload(experiments.QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.LoadPrepared(w.Prepared, core.Options{Z: w.Config.Z, B: w.Config.B})
	if err != nil {
		t.Fatal(err)
	}
	disjoint := 0
	for _, pair := range w.Pairs {
		plans, err := s.Plans(pair[:])
		if err != nil {
			t.Fatal(err)
		}
		for _, pp := range plans {
			p := pp.Plan
			for occ, o := range p.Net.Occs {
				f := p.Filters[occ]
				if o.Free() {
					if f != nil {
						t.Fatalf("free occurrence %d of %s has filter %v", occ, p.Net, f)
					}
					continue
				}
				var want map[int64]bool
				for ki, ka := range o.Keywords {
					set := kwindex.TOSetFromList(s.Index.ContainingList(ka.Keyword), ka.SchemaNode)
					if ki > 0 {
						maps.DeleteFunc(want, func(to int64, _ bool) bool { return !set[to] })
						continue
					}
					want = set
				}
				if f == nil || !slices.Equal(f, sortedKeys(want)) {
					t.Fatalf("occurrence %d of %s: filter %v, want %v", occ, p.Net, f, sortedKeys(want))
				}
				if len(o.Keywords) == 2 && len(f) == 0 {
					disjoint++
				}
			}
		}
	}
	if disjoint == 0 {
		t.Fatal("no two-keyword occurrence with disjoint TO sets in the workload")
	}
}

// sortedKeys returns a TO set's members in ascending order.
func sortedKeys(set map[int64]bool) []int64 {
	out := make([]int64, 0, len(set))
	for to := range set {
		out = append(out, to)
	}
	slices.Sort(out)
	return out
}
