package decomp_test

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/decomp"
	"repro/internal/relstore"
)

// A decomposition that lists a fragment twice is a load error naming the
// relation of the first repeated occurrence in fragment order, on every
// run, however the fragments are scheduled.
func TestMaterializeDuplicateFragmentFails(t *testing.T) {
	ds, err := datagen.TPCH(datagen.DefaultTPCHParams())
	if err != nil {
		t.Fatal(err)
	}
	frags := decomp.Complete(ds.TSS, 2).Fragments
	if len(frags) < 3 {
		t.Fatalf("only %d fragments", len(frags))
	}
	// Fragment 1 repeats before fragment 0 does.
	d := &decomp.Decomposition{Name: "dup", Physical: decomp.Physical{ClusterBothDirections: true, HashIndexes: true},
		Fragments: []decomp.Fragment{frags[0], frags[1], frags[2], frags[1], frags[0]}}
	want := fmt.Sprintf("relstore: duplicate relation %q", frags[1].RelationName())
	for run := 0; run < 50; run++ {
		err := decomp.Materialize(relstore.NewStore(), ds.Obj, d)
		if err == nil || err.Error() != want {
			t.Fatalf("run %d: err = %v, want %s", run, err, want)
		}
	}
}

// The relations Materialize builds do not depend on how many goroutines
// build them: at GOMAXPROCS 1 and 4 they have the same names, the same
// primary row sequence, the same sorted copy and hash index per column,
// and the same rows in the same order out of each.
func TestMaterializeIndependentOfProcs(t *testing.T) {
	ds, err := datagen.TPCH(datagen.DefaultTPCHParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*decomp.Decomposition{
		decomp.Complete(ds.TSS, 3),
		decomp.MinNClustIndx(ds.TSS),
		decomp.MinNClustNIndx(ds.TSS),
	} {
		t.Run(d.Name, func(t *testing.T) {
			build := func(procs int) *relstore.Store {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				s := relstore.NewStore()
				if err := decomp.Materialize(s, ds.Obj, d); err != nil {
					t.Fatal(err)
				}
				return s
			}
			one, four := build(1), build(4)
			names := one.Relations()
			if got := four.Relations(); !slices.Equal(got, names) || len(names) != len(d.Fragments) {
				t.Fatalf("relations %v, want %v", got, names)
			}
			rows := 0
			for _, name := range names {
				a, b := dumpRelation(one.Relation(name)), dumpRelation(four.Relation(name))
				if !slices.Equal(a, b) {
					t.Fatalf("%s differs between GOMAXPROCS 1 and 4:\n 1: %.300v\n 4: %.300v", name, a, b)
				}
				rows += one.Relation(name).NumRows()
			}
			if rows == 0 {
				t.Fatal("no rows materialized; test is vacuous")
			}
		})
	}
}

// dumpRelation renders everything a reader can observe of a relation:
// its columns, its primary rows in Scan order and, per column, the copy
// or hash index that serves it and the rows each distinct value returns.
func dumpRelation(r *relstore.Relation) []string {
	out := []string{fmt.Sprint(r.Cols)}
	var rows []relstore.Row
	r.Scan(func(row relstore.Row) bool {
		rows = append(rows, append(relstore.Row(nil), row...))
		out = append(out, fmt.Sprint(row))
		return true
	})
	for c := range r.Cols {
		ordering, clustered := r.ClusteredOn([]int{c})
		out = append(out, fmt.Sprintf("col %d: ordering %q %v hash %v", c, ordering, clustered, r.HasHashIndex(c)))
		if !clustered && !r.HasHashIndex(c) {
			continue
		}
		var vals []int64
		for _, row := range rows {
			vals = append(vals, row[c])
		}
		slices.Sort(vals)
		for _, v := range slices.Compact(vals) {
			got, path := r.LookupPrefix([]int{c}, []int64{v})
			for i := 0; i < got.Len(); i++ {
				out = append(out, fmt.Sprintf("%d=%d %v: %v", c, v, path, got.At(i)))
			}
		}
	}
	return out
}
