package relstore

import (
	"sync"
	"testing"
)

// The store is read-only after loading; concurrent readers across the
// top-k worker pool must agree and not race (run under -race).
func TestConcurrentReaders(t *testing.T) {
	s := NewStore(64)
	var rows []Row
	for i := 0; i < PageRows*8; i++ {
		rows = append(rows, Row{int64(i % 37), int64(i)})
	}
	r := newTestRelation(t, s, "r", rows)
	r.BuildAllHashIndexes()
	if err := r.AddOrdering(0); err != nil {
		t.Fatal(err)
	}

	want := make(map[int64]int)
	for v := int64(0); v < 37; v++ {
		want[v] = r.LookupEq(0, v).Len()
	}

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v := (seed*31 + int64(i)) % 37
				if got := r.LookupEq(0, v).Len(); got != want[v] {
					errs <- "lookup mismatch"
					return
				}
				if i%17 == 0 {
					n := 0
					r.Scan(func(Row) bool { n++; return n < 10 })
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	// Stats are consistent (all adds accounted, snapshot races none).
	st := s.Stats.Snapshot()
	if st.Lookups == 0 || st.RowsRead == 0 {
		t.Fatalf("stats lost updates: %+v", st)
	}
}
