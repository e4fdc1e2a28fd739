package relstore

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// stableSorted is the brute-force model of a sorted copy: rows stably
// sorted by cols with a plain comparison sort, so rows equal on cols
// keep their order in rows.
func stableSorted(rows []Row, cols []int) []Row {
	out := append([]Row(nil), rows...)
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

// orderingValuePools are the value sets a column draws from: small
// pools, so rows and whole tuples repeat, spread over the int64 range.
var orderingValuePools = [][]int64{
	{0},
	{-3, -2, -1, 0, 1, 2, 3},
	{1 << 33, -(1 << 33), 0, 5, 1<<40 + 1},
	{math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1, 0, -1},
	{math.MinInt64, math.MaxInt64},
	{1<<32 - 1, 1 << 32, 1<<32 + 1, 255, 256, 257, 65535, 65536},
}

// TestOrderingsMatchStableSort pins what every sorted copy holds: the
// clustered primary is the inserted rows stably sorted by the cluster
// columns, and each AddOrdering copy is the primary stably sorted by its
// own columns. It covers arity 1–7, heavy duplication of values and of
// whole rows, negative values, value spans above 2³² and next to the
// int64 limits, and empty and one-row relations; it checks the primary's
// Scan order, every copy row by row, and the rows LookupPrefix and a
// compiled Access return per key, in order.
func TestOrderingsMatchStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for round := 0; round < 70; round++ {
		arity := 1 + round%7
		var n int
		switch round % 5 {
		case 0:
			n = 0
		case 1:
			n = 1
		default:
			n = 2 + rng.Intn(3*PageRows)
		}
		pools := make([][]int64, arity)
		for c := range pools {
			pool := orderingValuePools[rng.Intn(len(orderingValuePools))]
			pools[c] = pool[:1+rng.Intn(len(pool))]
		}
		rows := make([]Row, n)
		for i := range rows {
			if i > 0 && rng.Intn(4) == 0 {
				rows[i] = append(Row(nil), rows[rng.Intn(i)]...) // a duplicate tuple
				continue
			}
			rows[i] = make(Row, arity)
			for c := range rows[i] {
				rows[i][c] = pools[c][rng.Intn(len(pools[c]))]
			}
		}
		// A random design: a cluster on a column list (not always
		// leading with column 0, not always all columns) and up to three
		// orderings, some added before Cluster so that Cluster rebuilds
		// them from the new primary.
		randCols := func() []int { return rng.Perm(arity)[:1+rng.Intn(arity)] }
		clusterCols := randCols()
		var before, after [][]int
		for k := rng.Intn(4); k > 0; k-- {
			if rng.Intn(2) == 0 {
				before = append(before, randCols())
			} else {
				after = append(after, randCols())
			}
		}
		name := fmt.Sprintf("round%d/arity%d/n%d", round, arity, n)
		r := newRelation(t, NewStore(), name, arity, rows)
		for _, cols := range before {
			if err := r.AddOrdering(cols...); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.Cluster(clusterCols...); err != nil {
			t.Fatal(err)
		}
		for _, cols := range after {
			if err := r.AddOrdering(cols...); err != nil {
				t.Fatal(err)
			}
		}

		primary := stableSorted(rows, clusterCols)
		var scanned []Row
		r.Scan(func(row Row) bool {
			scanned = append(scanned, append(Row(nil), row...))
			return true
		})
		if !reflect.DeepEqual(scanned, primary) {
			t.Fatalf("%s: scan order differs from the primary stably sorted by %v:\n got  %v\n want %v", name, clusterCols, scanned, primary)
		}

		// Every copy, row by row.
		copies := map[string][]int{"": clusterCols}
		for _, cols := range append(before, after...) {
			copies[colKey(cols)] = cols
		}
		if len(r.orderings)+1 != len(copies) {
			t.Fatalf("%s: %d orderings, want %d", name, len(r.orderings), len(copies)-1)
		}
		for _, o := range append([]*physCopy{&r.primary}, r.orderings...) {
			cols, ok := copies[o.ordering]
			if !ok || !slices.Equal(o.cols, cols) {
				t.Fatalf("%s: unexpected copy %q on %v", name, o.ordering, o.cols)
			}
			want := stableSorted(primary, cols)
			if got := flatRows(o.data, arity); len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("%s: copy %q differs from the primary stably sorted by %v:\n got  %v\n want %v", name, o.ordering, cols, got, want)
			}
		}

		// Every key of every prefix of every copy's columns, through
		// LookupPrefix and a compiled Access: the rows, in the order of
		// the copy that serves the prefix — the primary if it leads with
		// it, else the first ordering in column-list order.
		orderingCols := append(append([][]int(nil), before...), after...)
		slices.SortFunc(orderingCols, slices.Compare[[]int])
		for _, cols := range copies {
			for p := 1; p <= len(cols); p++ {
				prefix := cols[:p]
				serving := clusterCols
				if !hasPrefix(clusterCols, prefix) {
					for _, oc := range orderingCols {
						if hasPrefix(oc, prefix) {
							serving = oc
							break
						}
					}
				}
				byKey := make(map[string][]Row)
				var keys [][]int64
				for _, row := range stableSorted(primary, serving) {
					vals := make([]int64, p)
					for i, c := range prefix {
						vals[i] = row[c]
					}
					k := fmt.Sprint(vals)
					if _, seen := byKey[k]; !seen {
						keys = append(keys, vals)
					}
					byKey[k] = append(byKey[k], row)
				}
				compiled := r.Access(prefix...)
				for _, vals := range keys {
					want := byKey[fmt.Sprint(vals)]
					got, path := r.LookupPrefix(prefix, vals)
					var io IOStats
					again := compiled.Lookup(vals, &io)
					if path != PathClustered || compiled.Path() != PathClustered {
						t.Fatalf("%s: lookup on %v took %v / %v", name, prefix, path, compiled.Path())
					}
					if !reflect.DeepEqual(collect(got), want) || !reflect.DeepEqual(collect(again), want) {
						t.Fatalf("%s cols=%v vals=%v:\n got   %v\n again %v\n want  %v", name, prefix, vals, collect(got), collect(again), want)
					}
				}
			}
		}
	}
}

// flatRows splits a copy's flat storage into rows.
func flatRows(data []int64, arity int) []Row {
	var out []Row
	for o := 0; o < len(data); o += arity {
		out = append(out, Row(data[o:o+arity]))
	}
	return out
}
