package decomp_test

import (
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/decomp"
	"repro/internal/relstore"
	"repro/internal/tss"
)

// TestMVDTheoremBruteForce validates Theorem 5.3 against materialized
// data: for every fragment of size 2 and 3 that the theorem flags as
// MVD, the populated connection relation must exhibit the claimed
// dependency — grouping rows by the branching interior attribute, the
// group's rows are exactly the cross product of its left and right
// sides, minus the tuples the distinct-subgraph rule excludes.
func TestMVDTheoremBruteForce(t *testing.T) {
	params := datagen.DefaultTPCHParams()
	params.Persons, params.Parts = 20, 15
	ds, err := datagen.TPCH(params)
	if err != nil {
		t.Fatal(err)
	}
	tg := ds.TSS
	store := relstore.NewStore()
	var frags []decomp.Fragment
	for n := 2; n <= 3; n++ {
		frags = append(frags, decomp.EnumerateFragments(tg, n, true)...)
	}
	d := &decomp.Decomposition{Name: "test", Fragments: frags}
	if err := decomp.Materialize(store, ds.Obj, d); err != nil {
		t.Fatal(err)
	}

	checkedMVDs := 0
	for _, f := range frags {
		if !f.HasMVD(tg) {
			continue
		}
		rel := store.Relation(f.RelationName())
		if rel == nil || rel.NumRows() < 4 {
			continue // too little data to observe anything
		}
		center, ok := branchingInterior(tg, f)
		if !ok {
			t.Fatalf("%s flagged MVD without a branching interior", f.String(tg))
		}
		if err := verifyMVD(rel, center); err != nil {
			t.Errorf("%s: %v", f.String(tg), err)
		}
		checkedMVDs++
	}
	if checkedMVDs == 0 {
		t.Fatal("no MVD fragments with data; test is vacuous")
	}
	t.Logf("verified the dependency on %d MVD relations", checkedMVDs)
}

// branchingInterior returns the column index of the first interior
// segment entered by a contracting step and left by an expanding step —
// the Theorem 5.3 witness — recomputed from the public API.
func branchingInterior(tg *tss.Graph, f decomp.Fragment) (int, bool) {
	steps := f.Steps()
	expanding := func(id int, dir decomp.Dir) bool {
		e := tg.Edge(id)
		if dir == decomp.Fwd {
			return e.ForwardMany
		}
		return e.BackwardMany
	}
	for i := 0; i+1 < len(steps); i++ {
		rev := decomp.Fwd
		if steps[i].Dir == decomp.Fwd {
			rev = decomp.Bwd
		}
		leftMany := expanding(steps[i].EdgeID, rev)
		rightMany := expanding(steps[i+1].EdgeID, steps[i+1].Dir)
		if leftMany && rightMany {
			return i + 1, true // column of the interior segment
		}
	}
	return 0, false
}

// verifyMVD checks the cross-product-minus-duplicates property at the
// given center column.
func verifyMVD(rel *relstore.Relation, center int) error {
	type group struct {
		lefts, rights map[string][]int64
		rows          map[string]bool
	}
	groups := make(map[int64]*group)
	key := func(xs []int64) string { return fmt.Sprint(xs) }
	rel.Scan(func(row relstore.Row) bool {
		g := groups[row[center]]
		if g == nil {
			g = &group{
				lefts:  make(map[string][]int64),
				rights: make(map[string][]int64),
				rows:   make(map[string]bool),
			}
			groups[row[center]] = g
		}
		left := append([]int64(nil), row[:center]...)
		right := append([]int64(nil), row[center+1:]...)
		g.lefts[key(left)] = left
		g.rights[key(right)] = right
		g.rows[key(row)] = true
		return true
	})
	for cv, g := range groups {
		for _, l := range g.lefts {
			for _, r := range g.rights {
				combined := append(append(append([]int64(nil), l...), cv), r...)
				if hasDup(combined) {
					continue // excluded by the distinct-subgraph rule
				}
				if !g.rows[key(combined)] {
					return fmt.Errorf("center=%d group=%d: expected tuple %v missing", center, cv, combined)
				}
			}
		}
	}
	return nil
}

func hasDup(xs []int64) bool {
	for i := range xs {
		for j := i + 1; j < len(xs); j++ {
			if xs[i] == xs[j] {
				return true
			}
		}
	}
	return false
}
