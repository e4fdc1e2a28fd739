package persist_test

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/persist"
	"repro/internal/relstore"
	"repro/internal/tss"
)

// TestRoundTripRelations checks that Save → Load restores every
// connection relation copy for copy: the same names and attributes, the
// same primary row sequence, the same physical design per column, and
// the same row order out of every sorted copy and hash index — for all
// five decomposition presets on TPC-H Figure 1 and the quick DBLP
// workload.
func TestRoundTripRelations(t *testing.T) {
	fig1, err := datagen.TPCHFigure1()
	if err != nil {
		t.Fatal(err)
	}
	cfg := experiments.QuickConfig()
	dblp, err := datagen.DBLP(cfg.DBLP)
	if err != nil {
		t.Fatal(err)
	}
	datasets := []struct {
		name string
		ds   *datagen.Dataset
		spec tss.Spec
		opts core.Options
	}{
		{"fig1", fig1, datagen.TPCHSpec(), core.Options{Z: 8}},
		{"dblp", dblp, datagen.DBLPSpec(), core.Options{Z: cfg.Z, B: cfg.B}},
	}
	presets := []core.DecompositionPreset{
		core.PresetXKeyword, core.PresetComplete, core.PresetMinClust,
		core.PresetMinNClustIndx, core.PresetMinNClustNIndx,
	}
	for _, d := range datasets {
		for _, preset := range presets {
			t.Run(d.name+"/"+string(preset), func(t *testing.T) {
				opts := d.opts
				opts.Decomposition = preset
				orig, err := core.LoadPrepared(&core.Prepared{Schema: d.ds.Schema, TSS: d.ds.TSS, Data: d.ds.Data, Obj: d.ds.Obj}, opts)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := persist.Save(&buf, orig, d.spec); err != nil {
					t.Fatal(err)
				}
				restored, err := persist.Load(&buf)
				if err != nil {
					t.Fatal(err)
				}
				sameRelations(t, orig.Store, restored.Store)
			})
		}
	}
}

func sameRelations(t *testing.T, want, got *relstore.Store) {
	t.Helper()
	names := want.Relations()
	if g := got.Relations(); !slices.Equal(g, names) {
		t.Fatalf("relations %v, want %v", g, names)
	}
	for _, name := range names {
		a, b := want.Relation(name), got.Relation(name)
		if !slices.Equal(a.Cols, b.Cols) {
			t.Fatalf("%s: cols %v, want %v", name, b.Cols, a.Cols)
		}
		rowsA, rowsB := scanAll(a), scanAll(b)
		if !slices.EqualFunc(rowsA, rowsB, slices.Equal[relstore.Row]) {
			t.Fatalf("%s: scan differs (%d rows, want %d)", name, len(rowsB), len(rowsA))
		}
		for c := range a.Cols {
			ordA, okA := a.ClusteredOn([]int{c})
			ordB, okB := b.ClusteredOn([]int{c})
			if ordA != ordB || okA != okB {
				t.Fatalf("%s col %d: ClusteredOn (%q, %v), want (%q, %v)", name, c, ordB, okB, ordA, okA)
			}
			if a.HasHashIndex(c) != b.HasHashIndex(c) {
				t.Fatalf("%s col %d: HasHashIndex %v, want %v", name, c, b.HasHashIndex(c), a.HasHashIndex(c))
			}
			if !okA && !a.HasHashIndex(c) {
				continue // a probe would be a full scan per value
			}
			// Probe every distinct value through the sorted copy (or
			// hash index) that serves the column.
			seen := make(map[int64]bool)
			for _, row := range rowsA {
				v := row[c]
				if seen[v] {
					continue
				}
				seen[v] = true
				va, pa := a.LookupPrefix([]int{c}, []int64{v})
				vb, pb := b.LookupPrefix([]int{c}, []int64{v})
				if pa != pb || !sameRows(va, vb) {
					t.Fatalf("%s col %d = %d: lookup via %v differs from %v", name, c, v, pb, pa)
				}
			}
		}
	}
}

func scanAll(r *relstore.Relation) []relstore.Row {
	var rows []relstore.Row
	r.Scan(func(row relstore.Row) bool {
		rows = append(rows, append(relstore.Row(nil), row...))
		return true
	})
	return rows
}

func sameRows(a, b relstore.Rows) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if !slices.Equal(a.At(i), b.At(i)) {
			return false
		}
	}
	return true
}
