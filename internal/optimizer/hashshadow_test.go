package optimizer_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
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
			sys, err := core.LoadPrepared(&core.Prepared{Schema: ds.Schema, TSS: ds.TSS, Data: ds.Data, Obj: ds.Obj},
				core.Options{Decomposition: preset, SkipBlobs: true})
			if err != nil {
				t.Fatal(err)
			}
			skipped := 0
			ref := relstore.NewStore()
			for _, name := range sys.Store.Relations() {
				rel := sys.Store.Relation(name)
				full := withEveryHashIndex(t, ref, rel, sys.Decomp.Physical.HashIndexes)
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

// withEveryHashIndex rebuilds rel in store with its sorted copies and,
// when indexed, a hash index on every column.
func withEveryHashIndex(t *testing.T, store *relstore.Store, rel *relstore.Relation, indexed bool) *relstore.Relation {
	t.Helper()
	rows, clustered, orderings, _ := rel.Export()
	var hashCols []int
	if indexed {
		for c := range rel.Cols {
			hashCols = append(hashCols, c)
		}
	}
	full, err := store.CreateRelation(rel.Name, rel.Cols)
	if err != nil {
		t.Fatal(err)
	}
	if err := full.Import(rows, clustered, orderings, hashCols); err != nil {
		t.Fatal(err)
	}
	return full
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
