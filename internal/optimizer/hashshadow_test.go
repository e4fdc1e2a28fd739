package optimizer_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/decomp"
	"repro/internal/optimizer"
	"repro/internal/relstore"
)

// A single-column hash index on a column some sorted copy leads with is
// never read: Access and the optimizer's probe choice both prefer the
// copy. Materialization skips those indexes; this pins that, for every
// preset, every column's access path and every probe choice are what
// they would be with an index on every column.
func TestShadowedHashIndexesSkipped(t *testing.T) {
	fig1, err := datagen.TPCHFigure1()
	if err != nil {
		t.Fatal(err)
	}
	dblp, err := datagen.DBLP(datagen.DefaultDBLPParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range []*datagen.Dataset{fig1, dblp} {
		for _, preset := range []core.DecompositionPreset{
			core.PresetXKeyword, core.PresetComplete, core.PresetMinClust,
			core.PresetMinNClustIndx, core.PresetMinNClustNIndx,
		} {
			sys, err := core.LoadPrepared(ds,
				core.Options{Decomposition: preset})
			if err != nil {
				t.Fatal(err)
			}
			// The same decomposition materialized again, with a hash
			// index on every column when the design indexes at all.
			ref := relstore.NewStore()
			if err := decomp.Materialize(ref, sys.Obj, sys.Decomp); err != nil {
				t.Fatal(err)
			}
			skipped := 0
			for _, name := range sys.Store.Relations() {
				rel, full := sys.Store.Relation(name), ref.Relation(name)
				if sys.Decomp.Physical.HashIndexes {
					for c := range full.Cols {
						if err := full.BuildHashIndex(c); err != nil {
							t.Fatal(err)
						}
					}
				}
				for c := range rel.Cols {
					if got, want := rel.Access(c).Path(), full.Access(c).Path(); got != want {
						t.Fatalf("%s/%s col %d: access %v, with every index %v", preset, name, c, got, want)
					}
					if full.HasHashIndex(c) && !rel.HasHashIndex(c) {
						skipped++
					}
				}
				for _, bound := range boundSets(len(rel.Cols)) {
					if got, want := optimizer.BestProbe(rel, bound), optimizer.BestProbe(full, bound); got != want {
						t.Fatalf("%s/%s bound %v: probe %d, with every index %d", preset, name, bound, got, want)
					}
				}
			}
			shadowed := sys.Decomp.Physical.HashIndexes && sys.Decomp.Physical.ClusterBothDirections
			if shadowed != (skipped > 0) {
				t.Fatalf("%s: %d hash indexes skipped", preset, skipped)
			}
		}
	}
}

// boundSets lists every non-empty set of column positions, each in
// ascending and in descending order.
func boundSets(arity int) [][]int {
	var out [][]int
	for mask := 1; mask < 1<<arity; mask++ {
		var up, down []int
		for c := 0; c < arity; c++ {
			if mask&(1<<c) != 0 {
				up = append(up, c)
				down = append([]int{c}, down...)
			}
		}
		out = append(out, up, down)
	}
	return out
}
