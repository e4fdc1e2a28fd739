package relstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// model is the brute-force reference of one relation: its tuples in
// primary order plus the physical design, answered by sorting copies of
// the whole relation and filtering them.
type model struct {
	rows      []Row
	clustered []int
	orderings [][]int // kept sorted by column list
	hash      bool
}

func (m *model) sorted(cols []int) []Row {
	out := append([]Row(nil), m.rows...)
	sort.SliceStable(out, func(i, j int) bool {
		for _, c := range cols {
			if out[i][c] != out[j][c] {
				return out[i][c] < out[j][c]
			}
		}
		return false
	})
	return out
}

// lookup returns the rows, in order, and the path a lookup on cols must
// use: the primary if clustered on the prefix, else the first ordering
// with it, else the hash index of a single column, else a scan.
func (m *model) lookup(cols []int, vals []int64) ([]Row, AccessPath) {
	prefixOf := func(have []int) bool {
		return len(have) >= len(cols) && reflect.DeepEqual(have[:len(cols)], cols)
	}
	from, path := m.rows, PathScan
	if len(cols) == 1 && m.hash {
		path = PathHash
	}
	if prefixOf(m.clustered) {
		path = PathClustered
	} else {
		for _, o := range m.orderings {
			if prefixOf(o) {
				from, path = m.sorted(o), PathClustered
				break
			}
		}
	}
	var out []Row
rows:
	for _, row := range from {
		for i, c := range cols {
			if row[c] != vals[i] {
				continue rows
			}
		}
		out = append(out, row)
	}
	return out, path
}

// columnLists enumerates every non-empty sequence of distinct columns.
func columnLists(arity int) [][]int {
	var out [][]int
	var rec func(cur []int)
	rec = func(cur []int) {
		if len(cur) > 0 {
			out = append(out, append([]int(nil), cur...))
		}
		for c := 0; c < arity; c++ {
			used := false
			for _, u := range cur {
				used = used || u == c
			}
			if !used {
				rec(append(cur, c))
			}
		}
	}
	rec(nil)
	return out
}

// TestViewsMatchBruteForce is the differential test of the flat layout:
// random relations of arity 1–4 with heavy value duplication, under
// every physical design, probed on every column list — the view a lookup
// returns must hold exactly the rows, in exactly the order, that
// sorting and filtering the whole relation gives, by the expected path.
func TestViewsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	designs := []string{"none", "clustered", "both", "hash", "all"}
	for round := 0; round < 12; round++ {
		arity := 1 + round%4
		n := 1 + rng.Intn(3*PageRows)
		domain := int64(2 + rng.Intn(6))
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = make(Row, arity)
			for c := range rows[i] {
				rows[i][c] = rng.Int63n(domain)
			}
		}
		fwd, bwd := make([]int, arity), make([]int, arity)
		for i := range fwd {
			fwd[i], bwd[i] = i, arity-1-i
		}
		for _, design := range designs {
			name := fmt.Sprintf("round%d/arity%d/%s", round, arity, design)
			s := pooledStore(8)
			r := newTestRelation(t, s, name, rows)
			m := &model{rows: rows}
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
			if design == "hash" || design == "all" {
				r.BuildAllHashIndexes() // before Cluster: must be rebuilt by it
				m.hash = true
			}
			if design == "all" && arity >= 3 {
				// Two orderings sharing the prefix [1]: (1,0) sorts first.
				must(r.AddOrdering(1, 2))
				must(r.AddOrdering(1, 0))
				m.orderings = [][]int{{1, 0}, {1, 2}}
			}
			switch design {
			case "clustered":
				cols := rng.Perm(arity)[:1+rng.Intn(arity)]
				must(r.Cluster(cols...))
				m.rows, m.clustered = m.sorted(cols), cols
			case "both", "all":
				must(r.Cluster(fwd...))
				m.rows, m.clustered = m.sorted(fwd), fwd
				if arity > 1 {
					must(r.AddOrdering(bwd...))
					m.orderings = append(m.orderings, bwd) // (arity-1, ...) sorts after (1, ...)
				}
			}
			if r.NumRows() != n {
				t.Fatalf("%s: NumRows = %d, want %d", name, r.NumRows(), n)
			}
			for _, cols := range columnLists(arity) {
				compiled := r.Access(cols...)
				for probe := 0; probe < 6; probe++ {
					vals := make([]int64, len(cols))
					for i := range vals {
						vals[i] = rng.Int63n(domain + 1) // domain itself is absent
					}
					want, wantPath := m.lookup(cols, vals)
					got, path := r.LookupPrefix(cols, vals)
					var io IOStats
					again := compiled.Lookup(vals, &io)
					if path != wantPath || compiled.Path() != wantPath {
						t.Fatalf("%s cols=%v: path %v / compiled %v, want %v", name, cols, path, compiled.Path(), wantPath)
					}
					if len(want) == 0 && got.Len() == 0 && again.Len() == 0 {
						continue
					}
					if !reflect.DeepEqual(collect(got), want) || !reflect.DeepEqual(collect(again), want) {
						t.Fatalf("%s cols=%v vals=%v (%v):\n got  %v\n again %v\n want %v", name, cols, vals, path, collect(got), collect(again), want)
					}
					if io.Lookups != 1 || io.RowsRead != int64(len(want)) {
						t.Fatalf("%s cols=%v: compiled lookup charged %+v for %d rows", name, cols, io, len(want))
					}
				}
			}
			// A scan reads the primary copy, clustered as designed.
			var scanned []Row
			r.Scan(func(row Row) bool {
				scanned = append(scanned, append(Row(nil), row...))
				return true
			})
			if !reflect.DeepEqual(scanned, m.rows) {
				t.Fatalf("%s: scan order differs from the model's primary order", name)
			}
			if ord, ok := r.ClusteredOn(m.clustered); len(m.clustered) > 0 && (!ok || ord != "") {
				t.Fatalf("%s: primary not clustered on %v (%q, %v)", name, m.clustered, ord, ok)
			}
		}
	}
}

// Two secondary orderings that share a prefix: the lookup must take the
// same one — the first in column-list order — on every call, charge the
// pool under its PageKey only, and return rows in its order. (With the
// orderings in a map this depended on iteration order.)
func TestSharedPrefixOrderingsAreDeterministic(t *testing.T) {
	var rows []Row
	for i := 0; i < 2*PageRows; i++ {
		rows = append(rows, Row{int64(i % 5), int64(i % 7), int64(-i)})
	}
	s := pooledStore(64)
	r := newTestRelation(t, s, "r", rows)
	if err := r.AddOrdering(0, 2); err != nil { // added first, sorts second
		t.Fatal(err)
	}
	if err := r.AddOrdering(0, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if key, ok := r.ClusteredOn([]int{0}); !ok || key != "0,1" {
			t.Fatalf("lookup %d: ClusteredOn([0]) = %q, %v; want ordering 0,1", i, key, ok)
		}
		got, path := r.LookupPrefix([]int{0}, []int64{int64(i % 5)})
		if path != PathClustered || got.Len() == 0 {
			t.Fatalf("lookup %d: path %v, %d rows", i, path, got.Len())
		}
		rows := collect(got)
		for j := 1; j < len(rows); j++ {
			if rows[j-1][1] > rows[j][1] {
				t.Fatalf("lookup %d: rows not in (0,1) order: %v then %v", i, rows[j-1], rows[j])
			}
		}
	}
	if !s.Pool.Access(PageKey{Relation: "r", Ordering: "0,1", Page: 0}) {
		t.Fatal("pool was not charged under ordering 0,1")
	}
	for pg := int32(0); pg < 2; pg++ {
		if s.Pool.Access(PageKey{Relation: "r", Ordering: "0,2", Page: pg}) {
			t.Fatalf("pool was charged under ordering 0,2 (page %d)", pg)
		}
	}
}

// A warm probe returns a view: no allocation on the clustered primary,
// a secondary ordering or a hash index, one-shot or compiled, of a
// materialized relation or a factorized one, nor in reading the view
// through Iter.
func TestLookupsDoNotAllocate(t *testing.T) {
	var rows []Row
	for i := 0; i < 4*PageRows; i++ {
		rows = append(rows, Row{int64(i % 50), int64(i % 9), int64(i % 31)})
	}
	s := pooledStore(64)
	r := newTestRelation(t, s, "r", rows)
	r.BuildAllHashIndexes()
	if err := r.Cluster(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := r.AddOrdering(2, 1, 0); err != nil {
		t.Fatal(err)
	}
	var left, right []int64
	for i := int64(0); i < 200; i++ {
		left = append(left, i%50, 100+i%9)
		right = append(right, i%31, 100+i%7)
	}
	fac, err := s.CreateRelation("fac", []string{"x", "h", "y"})
	if err != nil {
		t.Fatal(err)
	}
	if err := fac.FillFactors(left, right); err != nil {
		t.Fatal(err)
	}
	fac.BuildAllHashIndexes()
	cases := []struct {
		name string
		rel  *Relation
		cols []int
		vals []int64
		path AccessPath
	}{
		{"clustered", r, []int{0}, []int64{7}, PathClustered},
		{"clustered composite", r, []int{0, 1}, []int64{7, 7}, PathClustered},
		{"ordering", r, []int{2}, []int64{7}, PathClustered},
		{"hash", r, []int{1}, []int64{7}, PathHash},
		{"factorized end", fac, []int{0}, []int64{7}, PathClustered},
		{"factorized composite", fac, []int{0, 1}, []int64{7, 103}, PathClustered},
		{"factorized ordering end", fac, []int{2}, []int64{7}, PathClustered},
		{"factorized ordering composite", fac, []int{2, 1}, []int64{7, 105}, PathClustered},
		{"factorized hub", fac, []int{1}, []int64{103}, PathHash},
	}
	for _, c := range cases {
		if _, path := c.rel.LookupPrefix(c.cols, c.vals); path != c.path { // also warms the pool
			t.Fatalf("%s: path %v, want %v", c.name, path, c.path)
		}
		sink := 0
		if n := testing.AllocsPerRun(100, func() {
			rows, _ := c.rel.LookupPrefix(c.cols, c.vals)
			sink += rows.Len()
		}); n != 0 {
			t.Errorf("%s: LookupPrefix allocates %v times per call", c.name, n)
		}
		compiled := c.rel.Access(c.cols...)
		var io IOStats
		if n := testing.AllocsPerRun(100, func() {
			sink += compiled.Lookup(c.vals, &io).Len()
		}); n != 0 {
			t.Errorf("%s: compiled Lookup allocates %v times per call", c.name, n)
		}
		view := compiled.Lookup(c.vals, &io)
		if n := testing.AllocsPerRun(100, func() {
			it := view.Iter()
			for row := it.Next(); row != nil; row = it.Next() {
				sink += int(row[0])
			}
		}); n != 0 {
			t.Errorf("%s: reading the view allocates %v times per call", c.name, n)
		}
		if sink == 0 {
			t.Fatalf("%s: lookups matched nothing", c.name)
		}
	}
}
