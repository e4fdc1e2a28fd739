package decomp_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/decomp"
	"repro/internal/relstore"
	"repro/internal/tss"
	"repro/internal/xmlgraph"
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
// its columns, cardinality and page count, its primary rows in Scan
// order and, per column and per pair of columns, the copy or hash index
// that serves it and the rows each distinct value (pair) returns.
func dumpRelation(r *relstore.Relation) []string {
	out := []string{fmt.Sprint(r.Cols), fmt.Sprintf("%d rows %d pages", r.NumRows(), r.NumPages())}
	var rows []relstore.Row
	r.Scan(func(row relstore.Row) bool {
		rows = append(rows, append(relstore.Row(nil), row...))
		out = append(out, fmt.Sprint(row))
		return true
	})
	var prefixes [][]int
	for c := range r.Cols {
		prefixes = append(prefixes, []int{c})
	}
	for c := range r.Cols {
		for d := range r.Cols {
			if c != d {
				prefixes = append(prefixes, []int{c, d})
			}
		}
	}
	for _, cols := range prefixes {
		ordering, clustered := r.ClusteredOn(cols)
		hash := len(cols) == 1 && r.HasHashIndex(cols[0])
		out = append(out, fmt.Sprintf("cols %v: ordering %q %v hash %v", cols, ordering, clustered, hash))
		if !clustered && !hash {
			continue // a probe would be a full scan per value
		}
		var keys [][]int64
		for _, row := range rows {
			key := make([]int64, len(cols))
			for i, c := range cols {
				key[i] = row[c]
			}
			keys = append(keys, key)
		}
		slices.SortFunc(keys, slices.Compare[[]int64])
		for _, key := range slices.CompactFunc(keys, slices.Equal[[]int64]) {
			got, path := r.LookupPrefix(cols, key)
			it := got.Iter()
			for row := it.Next(); row != nil; row = it.Next() {
				out = append(out, fmt.Sprintf("%v=%v %v: %v", cols, key, path, row))
			}
		}
	}
	return out
}

// randomDBLP builds a small DBLP graph whose object graph has what the
// generator never makes: papers that cite themselves, cite one paper
// twice, or list one author twice — self-loops and parallel edges of
// the paper–paper and paper–author TSS edges.
func randomDBLP(t *testing.T, seed int64) *datagen.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d := xmlgraph.New()
	cont := func(a, b xmlgraph.NodeID) { d.MustAddEdge(a, b, xmlgraph.Containment) }
	ref := func(a, b xmlgraph.NodeID) { d.MustAddEdge(a, b, xmlgraph.Reference) }
	var authors, papers []xmlgraph.NodeID
	for i := 0; i < 2+rng.Intn(5); i++ {
		a := d.AddNode("author", "")
		cont(a, d.AddNode("name", datagen.AuthorName(i)))
		authors = append(authors, a)
	}
	for c := 0; c < 1+rng.Intn(2); c++ {
		conf := d.AddNode("conference", "")
		cont(conf, d.AddNode("name", fmt.Sprint("conf", c)))
		for y := 0; y < 1+rng.Intn(3); y++ {
			cy := d.AddNode("confyear", "")
			cont(conf, cy)
			cont(cy, d.AddNode("year", fmt.Sprint(2000+y)))
			for i := 0; i < 2+rng.Intn(8); i++ {
				pa := d.AddNode("paper", "")
				cont(cy, pa)
				for _, label := range []string{"title", "pages", "url"} {
					cont(pa, d.AddNode(label, fmt.Sprint(label, len(papers))))
				}
				for k := rng.Intn(4); k > 0; k-- {
					ar := d.AddNode("authorref", "")
					cont(pa, ar)
					ref(ar, authors[rng.Intn(len(authors))])
				}
				papers = append(papers, pa)
			}
		}
	}
	for _, pa := range papers {
		for k := rng.Intn(5); k > 0; k-- {
			ci := d.AddNode("cite", "")
			cont(pa, ci)
			ref(ci, papers[rng.Intn(len(papers))]) // itself, now and then
		}
	}
	sg := datagen.DBLPSchema()
	if err := sg.Assign(d); err != nil {
		t.Fatal(err)
	}
	tg, err := tss.Derive(sg, datagen.DBLPSpec())
	if err != nil {
		t.Fatal(err)
	}
	og, err := tg.Decompose(d)
	if err != nil {
		t.Fatal(err)
	}
	return &datagen.Dataset{Schema: sg, TSS: tg, Data: d, Obj: og}
}

// The factorized relations Materialize builds for two-step MVD
// fragments read as the walker's materialized ones: on DBLP, on TPC-H
// and on random small DBLP graphs with self-loops and parallel edges,
// every relation of every two-step fragment dumps byte-identically —
// rows, order, access paths, cardinality, pages — and the dumps charge
// identical I/O against equally small buffer pools. On the generated
// datasets the factorized store holds fewer cells.
func TestFactorizedMatchesWalked(t *testing.T) {
	tpch, err := datagen.TPCH(datagen.DefaultTPCHParams())
	if err != nil {
		t.Fatal(err)
	}
	dblp, err := datagen.DBLP(datagen.DefaultDBLPParams())
	if err != nil {
		t.Fatal(err)
	}
	names, sets := []string{"tpch", "dblp"}, []*datagen.Dataset{tpch, dblp}
	for seed := int64(1); seed <= 8; seed++ {
		names, sets = append(names, fmt.Sprint("random", seed)), append(sets, randomDBLP(t, seed))
	}
	for i, ds := range sets {
		name := names[i]
		d := decomp.Complete(ds.TSS, 2)
		fac, walked := relstore.NewStore(), relstore.NewStore()
		if err := decomp.Materialize(fac, ds.Obj, d); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := decomp.MaterializeWalked(walked, ds.Obj, d); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fac.Pool, walked.Pool = relstore.NewBufferPool(4), relstore.NewBufferPool(4)
		mvd, rows := 0, 0
		for _, f := range d.Fragments {
			if f.Classify(ds.TSS) == decomp.ClassMVD {
				mvd++
			}
			rel := f.RelationName()
			a, b := dumpRelation(fac.Relation(rel)), dumpRelation(walked.Relation(rel))
			if !slices.Equal(a, b) {
				t.Fatalf("%s: %s (%s) differs from the walked relation:\n factorized %.400v\n walked     %.400v",
					name, rel, f.String(ds.TSS), a, b)
			}
			rows += walked.Relation(rel).NumRows()
		}
		if fs, ws := fac.Stats.Snapshot(), walked.Stats.Snapshot(); fs != ws || fac.Pool.Len() != walked.Pool.Len() {
			t.Fatalf("%s: factorized I/O %+v, walked %+v", name, fs, ws)
		}
		if mvd == 0 || rows == 0 || (i < 2 && fac.Cells() >= walked.Cells()) {
			t.Fatalf("%s: %d MVD fragments, %d rows, %d cells factorized against %d walked",
				name, mvd, rows, fac.Cells(), walked.Cells())
		}
	}
}
