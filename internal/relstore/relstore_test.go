package relstore

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func newTestRelation(t *testing.T, s *Store, name string, rows []Row) *Relation {
	t.Helper()
	arity := 2
	if len(rows) > 0 {
		arity = len(rows[0])
	}
	return newRelation(t, s, name, arity, rows)
}

// newRelation creates a relation of the given arity holding rows in
// primary (insertion) order, ready for its physical design.
func newRelation(t *testing.T, s *Store, name string, arity int, rows []Row) *Relation {
	t.Helper()
	cols := make([]string, arity)
	for i := range cols {
		cols[i] = string(rune('a' + i))
	}
	r, err := s.CreateRelation(name, cols)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Fill(flatten(arity, rows)); err != nil {
		t.Fatal(err)
	}
	return r
}

// flatten lays rows out the way Fill takes them: row i at
// [i*arity, (i+1)*arity).
func flatten(arity int, rows []Row) []int64 {
	flat := make([]int64, 0, arity*len(rows))
	for _, row := range rows {
		flat = append(flat, row...)
	}
	return flat
}

// collect materializes a view, for assertions: every row Iter returns,
// copied.
func collect(v Rows) []Row {
	var out []Row
	it := v.Iter()
	for row := it.Next(); row != nil; row = it.Next() {
		out = append(out, append(Row(nil), row...))
	}
	return out
}

func TestCreateRelationValidation(t *testing.T) {
	s := pooledStore(16)
	if _, err := s.CreateRelation("", []string{"a"}); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := s.CreateRelation("r", nil); err == nil {
		t.Fatal("no columns accepted")
	}
	if _, err := s.CreateRelation("r", []string{"a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateRelation("r", []string{"a"}); err == nil {
		t.Fatal("duplicate relation accepted")
	}
	if s.Relation("r") == nil || s.Relation("nope") != nil {
		t.Fatal("Relation lookup wrong")
	}
}

func TestFillValidation(t *testing.T) {
	s := pooledStore(16)
	r, _ := s.CreateRelation("r", []string{"a", "b"})
	if err := r.Fill([]int64{1}); err == nil {
		t.Fatal("wrong arity accepted")
	}
	if err := r.Fill([]int64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := r.Fill([]int64{3, 4}); err == nil {
		t.Fatal("second fill accepted")
	}
	if r.NumRows() != 1 {
		t.Fatalf("NumRows = %d after a rejected fill, want 1", r.NumRows())
	}
}

func TestLookupPathsAgree(t *testing.T) {
	// The same logical lookup must return the same multiset of rows on
	// every access path.
	rng := rand.New(rand.NewSource(42))
	var rows []Row
	for i := 0; i < 1000; i++ {
		rows = append(rows, Row{int64(rng.Intn(50)), int64(rng.Intn(50)), int64(i)})
	}
	s := pooledStore(64)
	scanRel := newTestRelation(t, s, "scan", rows)
	hashRel := newTestRelation(t, s, "hash", rows)
	hashRel.BuildAllHashIndexes()
	clustRel := newTestRelation(t, s, "clust", rows)
	if err := clustRel.Cluster(0); err != nil {
		t.Fatal(err)
	}
	ordRel := newTestRelation(t, s, "ord", rows)
	if err := ordRel.AddOrdering(0, 1); err != nil {
		t.Fatal(err)
	}

	count := func(rs []Row) map[[3]int64]int {
		m := make(map[[3]int64]int)
		for _, r := range rs {
			m[[3]int64{r[0], r[1], r[2]}]++
		}
		return m
	}
	for v := int64(0); v < 50; v++ {
		got0, p0 := scanRel.LookupPrefix([]int{0}, []int64{v})
		got1, p1 := hashRel.LookupPrefix([]int{0}, []int64{v})
		got2, p2 := clustRel.LookupPrefix([]int{0}, []int64{v})
		got3, p3 := ordRel.LookupPrefix([]int{0}, []int64{v})
		if p0 != PathScan || p1 != PathHash || p2 != PathClustered || p3 != PathClustered {
			t.Fatalf("paths = %v %v %v %v", p0, p1, p2, p3)
		}
		c0 := count(collect(got0))
		for name, c := range map[string]map[[3]int64]int{"hash": count(collect(got1)), "clust": count(collect(got2)), "ord": count(collect(got3))} {
			if len(c) != len(c0) {
				t.Fatalf("v=%d: %s returned %d distinct rows, scan %d", v, name, len(c), len(c0))
			}
			for k, n := range c0 {
				if c[k] != n {
					t.Fatalf("v=%d: %s disagrees on %v: %d vs %d", v, name, k, c[k], n)
				}
			}
		}
	}
}

func TestLookupPrefixMultiColumn(t *testing.T) {
	s := pooledStore(16)
	r := newTestRelation(t, s, "r", []Row{
		{1, 10, 100}, {1, 10, 101}, {1, 20, 102}, {2, 10, 103},
	})
	if err := r.AddOrdering(0, 1); err != nil {
		t.Fatal(err)
	}
	rows, path := r.LookupPrefix([]int{0, 1}, []int64{1, 10})
	if path != PathClustered || rows.Len() != 2 {
		t.Fatalf("rows=%v path=%v", collect(rows), path)
	}
	// Without a matching ordering the lookup degrades to a scan.
	rows2, path2 := r.LookupPrefix([]int{1, 2}, []int64{10, 103})
	if path2 != PathScan || rows2.Len() != 1 {
		t.Fatalf("rows=%v path=%v", collect(rows2), path2)
	}
}

func TestLookupEqMissingValue(t *testing.T) {
	s := pooledStore(16)
	r := newTestRelation(t, s, "r", []Row{{1, 2}, {3, 4}})
	r.BuildAllHashIndexes()
	if rows := r.LookupEq(0, 99); rows.Len() != 0 {
		t.Fatalf("rows = %v, want nil", rows)
	}
}

func TestScanEarlyStop(t *testing.T) {
	s := pooledStore(16)
	var rows []Row
	for i := 0; i < 10; i++ {
		rows = append(rows, Row{int64(i), 0})
	}
	r := newTestRelation(t, s, "r", rows)
	n := 0
	r.Scan(func(Row) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("scanned %d rows, want 3", n)
	}
}

// pooledStore returns a store with a simulated buffer pool of the given
// capacity in pages.
func pooledStore(pages int) *Store {
	s := NewStore()
	s.Pool = NewBufferPool(pages)
	return s
}

// Without a pool every page access is a read: a repeated scan reads the
// same pages again, nothing is ever a hit, and ResetStats still works.
func TestNoPoolCountsEveryAccess(t *testing.T) {
	s := NewStore()
	var rows []Row
	for i := 0; i < PageRows*3; i++ { // 3 pages
		rows = append(rows, Row{int64(i), int64(i % 7)})
	}
	r := newTestRelation(t, s, "r", rows)
	r.Scan(func(Row) bool { return true })
	r.Scan(func(Row) bool { return true })
	if st := s.Stats.Snapshot(); st.PageReads != 6 || st.SeqReads != 6 || st.PageHits != 0 {
		t.Fatalf("stats = %+v, want 6 sequential reads, no hits", st)
	}
	s.ResetStats()
	if st := s.Stats.Snapshot(); st != (IOStats{}) {
		t.Fatalf("stats after reset = %+v", st)
	}
}

func TestIOAccounting(t *testing.T) {
	s := pooledStore(2) // tiny pool: 2 pages
	var rows []Row
	for i := 0; i < PageRows*4; i++ { // 4 pages
		rows = append(rows, Row{int64(i), int64(i % 7)})
	}
	r := newTestRelation(t, s, "r", rows)
	r.Scan(func(Row) bool { return true })
	st := s.Stats.Snapshot()
	if st.PageReads != 4 {
		t.Fatalf("first scan reads = %d, want 4", st.PageReads)
	}
	// Pool holds 2 pages; a second scan re-reads at least 2 pages.
	r.Scan(func(Row) bool { return true })
	st2 := s.Stats.Snapshot()
	if st2.PageReads <= st.PageReads {
		t.Fatalf("second scan should miss with a 2-page pool: %d -> %d", st.PageReads, st2.PageReads)
	}
	if st2.Scans != 2 || st2.RowsRead != int64(2*len(rows)) {
		t.Fatalf("stats = %+v", st2)
	}
}

func TestBufferPoolHitsAfterWarm(t *testing.T) {
	s := pooledStore(64)
	var rows []Row
	for i := 0; i < PageRows*3; i++ {
		rows = append(rows, Row{int64(i % 5), int64(i)})
	}
	r := newTestRelation(t, s, "r", rows)
	if err := r.Cluster(0); err != nil {
		t.Fatal(err)
	}
	r.LookupEq(0, 3)
	st := s.Stats.Snapshot()
	r.LookupEq(0, 3)
	st2 := s.Stats.Snapshot()
	if st2.PageReads != st.PageReads {
		t.Fatalf("warm lookup missed: %d -> %d", st.PageReads, st2.PageReads)
	}
	if st2.PageHits <= st.PageHits {
		t.Fatalf("warm lookup recorded no hits: %+v", st2)
	}
}

func TestBufferPoolLRU(t *testing.T) {
	p := NewBufferPool(2)
	k := func(i int32) PageKey { return PageKey{Relation: "r", Page: i} }
	if p.Access(k(1)) || p.Access(k(2)) {
		t.Fatal("cold accesses reported hits")
	}
	if !p.Access(k(1)) {
		t.Fatal("cached page missed")
	}
	p.Access(k(3)) // evicts 2 (LRU)
	if p.Access(k(2)) {
		t.Fatal("evicted page reported hit")
	}
	if p.Len() != 2 {
		t.Fatalf("pool len = %d", p.Len())
	}
	p.Reset()
	if p.Len() != 0 {
		t.Fatal("reset did not empty pool")
	}
	// Zero capacity means no pool (every access a read; see
	// TestNoPoolCountsEveryAccess).
	if NewBufferPool(0) != nil {
		t.Fatal("zero-capacity pool built")
	}
}

func TestClusterRebuildsIndexes(t *testing.T) {
	s := pooledStore(16)
	r := newTestRelation(t, s, "r", []Row{{3, 30}, {1, 10}, {2, 20}})
	r.BuildAllHashIndexes()
	if err := r.AddOrdering(1); err != nil {
		t.Fatal(err)
	}
	if err := r.Cluster(0); err != nil {
		t.Fatal(err)
	}
	// Hash index must still find the right row after the physical sort.
	rows, path := r.LookupPrefix([]int{1}, []int64{30})
	if got := collect(rows); len(got) != 1 || got[0][0] != 3 {
		t.Fatalf("rows=%v path=%v", collect(rows), path)
	}
	// Ordering on col 1 must have been rebuilt.
	if _, ok := r.ClusteredOn([]int{1}); !ok {
		t.Fatal("ordering on col 1 lost after Cluster")
	}
	if _, ok := r.ClusteredOn([]int{0}); !ok {
		t.Fatal("primary clustering not reported")
	}
}

func TestClusteredOnPrefixSemantics(t *testing.T) {
	s := pooledStore(16)
	r := newTestRelation(t, s, "r", []Row{{1, 2, 3}})
	if err := r.AddOrdering(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.ClusteredOn([]int{0}); !ok {
		t.Fatal("prefix [0] of ordering [0,1] not matched")
	}
	if _, ok := r.ClusteredOn([]int{1}); ok {
		t.Fatal("non-prefix [1] matched")
	}
}

func TestStoreTotals(t *testing.T) {
	s := pooledStore(16)
	newTestRelation(t, s, "a", []Row{{1, 2}, {3, 4}})
	newTestRelation(t, s, "b", make([]Row, 0))
	if s.TotalRows() != 2 {
		t.Fatalf("TotalRows = %d", s.TotalRows())
	}
	if got := s.Relations(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Relations = %v", got)
	}
	if s.TotalPages() != 1 {
		t.Fatalf("TotalPages = %d", s.TotalPages())
	}
}

// Property: for random data, LookupPrefix on a clustered relation returns
// exactly the rows a filter scan returns.
func TestQuickClusteredEqualsScan(t *testing.T) {
	f := func(seed int64, nRaw uint16, domainRaw uint8) bool {
		n := int(nRaw%500) + 1
		domain := int64(domainRaw%20) + 1
		rng := rand.New(rand.NewSource(seed))
		s := pooledStore(32)
		r, _ := s.CreateRelation("r", []string{"x", "y"})
		rows := make([]int64, 2*n)
		for i := range rows {
			rows[i] = rng.Int63n(domain)
		}
		if err := r.Fill(rows); err != nil {
			return false
		}
		want := make(map[int64]int)
		r.Scan(func(row Row) bool { want[row[0]*1000+row[1]]++; return true })
		if err := r.Cluster(0); err != nil {
			return false
		}
		got := make(map[int64]int)
		for v := int64(0); v < domain; v++ {
			for _, row := range collect(r.LookupEq(0, v)) {
				got[row[0]*1000+row[1]]++
			}
		}
		if len(got) != len(want) {
			return false
		}
		for k, c := range want {
			if got[k] != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
