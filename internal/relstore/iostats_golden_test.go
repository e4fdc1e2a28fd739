package relstore

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
)

var updateIOStats = flag.Bool("update", false, "rewrite testdata/iostats.golden")

// TestIOStatsGolden pins the store's accounting — page reads, sequential
// reads, pool hits, lookups, scans, rows read — for a scripted sequence
// of lookups and scans over every physical design and a pool far smaller
// than the data. The golden file was written by the row-copying store
// that preceded the flat layout; storage may change, what a probe is
// charged may not.
func TestIOStatsGolden(t *testing.T) {
	s := pooledStore(3)
	rng := rand.New(rand.NewSource(19))
	var rows []Row
	for i := 0; i < 5*PageRows+17; i++ {
		rows = append(rows, Row{int64(rng.Intn(40)), int64(rng.Intn(12)), int64(i)})
	}
	designs := []struct {
		name  string
		build func(*Relation) error
	}{
		{"none", func(*Relation) error { return nil }},
		{"clustered", func(r *Relation) error { return r.Cluster(0, 1) }},
		{"ordering", func(r *Relation) error { return r.AddOrdering(1, 0) }},
		{"both", func(r *Relation) error {
			if err := r.Cluster(0, 1, 2); err != nil {
				return err
			}
			return r.AddOrdering(2, 1, 0)
		}},
		{"hash", func(r *Relation) error { r.BuildAllHashIndexes(); return nil }},
		{"all", func(r *Relation) error {
			r.BuildAllHashIndexes()
			if err := r.AddOrdering(1); err != nil {
				return err
			}
			return r.Cluster(0)
		}},
	}
	var rels []*Relation
	for _, d := range designs {
		r := newTestRelation(t, s, d.name, rows)
		if err := d.build(r); err != nil {
			t.Fatal(err)
		}
		rels = append(rels, r)
	}
	empty := newTestRelation(t, s, "empty", nil)
	if err := empty.Cluster(0); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	line := func(what string) {
		st := s.Stats.Snapshot()
		fmt.Fprintf(&sb, "%-28s reads=%d seq=%d hits=%d lookups=%d scans=%d rows=%d pool=%d\n",
			what, st.PageReads, st.SeqReads, st.PageHits, st.Lookups, st.Scans, st.RowsRead, s.Pool.Len())
	}
	for i, r := range rels {
		name := designs[i].name
		for n := 0; n < 60; n++ {
			_ = r.LookupEq(0, int64(rng.Intn(44))) // some values are absent
		}
		line(name + " eq col0")
		for n := 0; n < 40; n++ {
			_ = r.LookupEq(1, int64(rng.Intn(14)))
		}
		line(name + " eq col1")
		for n := 0; n < 40; n++ {
			_, _ = r.LookupPrefix([]int{0, 1}, []int64{int64(rng.Intn(42)), int64(rng.Intn(13))})
		}
		line(name + " prefix 0,1")
		for n := 0; n < 20; n++ {
			_, _ = r.LookupPrefix([]int{2}, []int64{int64(rng.Intn(len(rows) + 50))})
		}
		line(name + " eq col2")
		seen := 0
		r.Scan(func(Row) bool { seen++; return seen < 2*PageRows+3 })
		line(name + " scan stopped")
		r.Scan(func(Row) bool { return true })
		line(name + " scan full")
		_ = r.LookupEq(0, 7)
		_ = r.LookupEq(0, 7)
		line(name + " repeat")
	}
	_ = empty.LookupEq(0, 1)
	empty.Scan(func(Row) bool { return true })
	line("empty")

	const path = "testdata/iostats.golden"
	if *updateIOStats {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if sb.String() != string(want) {
		t.Fatalf("I/O accounting moved; got:\n%s\nwant:\n%s", sb.String(), want)
	}
}
