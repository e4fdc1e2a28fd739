package relstore

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// product is the materialized reference of FillFactors: every (x, h, y)
// of a left pair (x, h) and a right pair (y, h), x, h and y distinct, in
// the left pairs' order, one row per combination of given pairs.
func product(left, right []int64) []Row {
	var rows []Row
	for i := 0; i < len(left); i += 2 {
		x, h := left[i], left[i+1]
		for j := 0; j < len(right); j += 2 {
			if y := right[j]; right[j+1] == h && x != h && y != h && y != x {
				rows = append(rows, Row{x, h, y})
			}
		}
	}
	return rows
}

// randomPairs draws n (end, hub) pairs over a small shared domain, so
// they repeat (parallel edges), sometimes have the end for hub (a
// self-loop) and share values with the other side's ends and hubs (a
// hub in the ends' own segment).
func randomPairs(rng *rand.Rand, n int, domain int64) []int64 {
	flat := make([]int64, 0, 2*n)
	for i := 0; i < n; i++ {
		flat = append(flat, rng.Int63n(domain), rng.Int63n(domain))
	}
	return flat
}

// factorPair builds the same relation twice, in two stores with equally
// small pools: materialized from product and clustered both ways, and
// by FillFactors; with hash, both then index every column they can.
func factorPair(t *testing.T, name string, left, right []int64, hash bool, pages int) (mat, fac *Relation) {
	t.Helper()
	mat = newRelation(t, pooledStore(pages), name, 3, product(left, right))
	if err := mat.Cluster(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := mat.AddOrdering(2, 1, 0); err != nil {
		t.Fatal(err)
	}
	fac, err := pooledStore(pages).CreateRelation(name, []string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if err := fac.FillFactors(left, right); err != nil {
		t.Fatal(err)
	}
	if hash {
		mat.BuildAllHashIndexes()
		fac.BuildAllHashIndexes()
	}
	return mat, fac
}

// dumpView renders a view: its length and its rows.
func dumpView(v Rows) string {
	return fmt.Sprint(v.Len(), collect(v))
}

// TestFactorsMatchProduct is the differential test of the factorized
// form: on random factors with parallel pairs, self-loops and values
// shared between ends and hubs, every column list probed with every
// value returns the rows, the path and the I/O — page by page against
// a pool a few pages small — that the materialized product clustered
// both ways returns, as do Scan, NumRows, NumPages and the physical
// design the optimizer reads.
func TestFactorsMatchProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 16; round++ {
		domain := int64(3 + rng.Intn(10))
		pairs := rng.Intn(40) // a page or less
		if round%2 == 1 {
			pairs = 60 + rng.Intn(120) // up to a few dozen pages
		}
		left := randomPairs(rng, pairs, domain)
		right := randomPairs(rng, pairs, domain)
		if round == 0 {
			right = left // one edge set on both sides: x – h – y over a single TSS edge
		}
		hash := round%4 != 3
		name := fmt.Sprintf("round%d", round)
		mat, fac := factorPair(t, name, left, right, hash, 3)
		if fac.NumRows() != mat.NumRows() || fac.NumPages() != mat.NumPages() {
			t.Fatalf("%s: %d rows %d pages, want %d and %d", name, fac.NumRows(), fac.NumPages(), mat.NumRows(), mat.NumPages())
		}
		for _, cols := range columnLists(3) {
			mo, mok := mat.ClusteredOn(cols)
			fo, fok := fac.ClusteredOn(cols)
			if mo != fo || mok != fok {
				t.Fatalf("%s: ClusteredOn(%v) = %q %v, want %q %v", name, cols, fo, fok, mo, mok)
			}
			ma, fa := mat.Access(cols...), fac.Access(cols...)
			if ma.Path() != fa.Path() {
				t.Fatalf("%s: Access(%v) path %v, want %v", name, cols, fa.Path(), ma.Path())
			}
			vals := make([]int64, len(cols))
			var probe func(i int)
			probe = func(i int) {
				if i < len(vals) {
					for v := int64(-1); v <= domain; v++ {
						vals[i] = v
						probe(i + 1)
					}
					return
				}
				var mio, fio IOStats
				want, got := dumpView(ma.Lookup(vals, &mio)), dumpView(fa.Lookup(vals, &fio))
				if got != want || fio != mio {
					t.Fatalf("%s: cols %v = %v (%v):\n got  %s %+v\n want %s %+v", name, cols, vals, ma.Path(), got, fio, want, mio)
				}
			}
			probe(0)
		}
		for c := range mat.Cols {
			if mat.HasHashIndex(c) != fac.HasHashIndex(c) {
				t.Fatalf("%s: HasHashIndex(%d) = %v", name, c, fac.HasHashIndex(c))
			}
		}
		for _, stop := range []int{PageRows + 1, math.MaxInt} {
			var ms, fs []string
			mat.Scan(func(r Row) bool { ms = append(ms, fmt.Sprint(r)); return len(ms) < stop })
			fac.Scan(func(r Row) bool { fs = append(fs, fmt.Sprint(r)); return len(fs) < stop })
			if !reflect.DeepEqual(fs, ms) {
				t.Fatalf("%s: scan (stop %d) %v, want %v", name, stop, fs, ms)
			}
		}
		if mat.store.Stats != fac.store.Stats || mat.store.Pool.Len() != fac.store.Pool.Len() {
			t.Fatalf("%s: store I/O %+v pool %d, want %+v pool %d", name, fac.store.Stats, fac.store.Pool.Len(), mat.store.Stats, mat.store.Pool.Len())
		}
	}
}

// The factorized form refuses what it cannot be: a second fill, a
// relation of another arity, odd pair lists, another clustering, and
// an index on a column it does not have.
func TestFillFactorsValidation(t *testing.T) {
	s := NewStore()
	two, _ := s.CreateRelation("two", []string{"a", "b"})
	if err := two.FillFactors([]int64{1, 2}, []int64{3, 2}); err == nil {
		t.Fatal("two columns accepted")
	}
	r, _ := s.CreateRelation("r", []string{"a", "b", "c"})
	if err := r.FillFactors([]int64{1, 2, 3}, nil); err == nil {
		t.Fatal("odd pair list accepted")
	}
	if err := r.FillFactors([]int64{1, 2}, []int64{3, 2}); err != nil {
		t.Fatal(err)
	}
	if r.NumRows() != 1 {
		t.Fatalf("NumRows = %d, want 1", r.NumRows())
	}
	if err := r.FillFactors(nil, nil); err == nil {
		t.Fatal("second fill accepted")
	}
	if err := r.Fill([]int64{1, 2, 3}); err == nil {
		t.Fatal("Fill after FillFactors accepted")
	}
	if err := r.Cluster(1); err == nil {
		t.Fatal("Cluster of a factorized relation accepted")
	}
	if err := r.AddOrdering(1, 0); err == nil {
		t.Fatal("AddOrdering of a factorized relation accepted")
	}
	if err := r.BuildHashIndex(3); err == nil {
		t.Fatal("a hash index on column 3 accepted")
	}
}

// Row numbers are int32 throughout a materialized relation, so a
// relation with more rows than that is refused, naming it; the test
// asks the bound directly, since no test can allocate 2³¹ rows.
func TestRowCountBound(t *testing.T) {
	r, _ := NewStore().CreateRelation("CR_big", []string{"a"})
	if err := r.checkCount("rows", math.MaxInt32); err != nil {
		t.Fatalf("MaxInt32 rows refused: %v", err)
	}
	err := r.checkCount("rows", math.MaxInt32+1)
	if err == nil || !strings.Contains(err.Error(), "CR_big") {
		t.Fatalf("MaxInt32+1 rows: err = %v, want one naming CR_big", err)
	}
}
