package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
)

// StageRow aggregates one pipeline stage over the workload's queries.
type StageRow struct {
	Stage      string
	ColdMicros float64 // stage time of the first query on a fresh system
	WarmMicros float64 // mean stage time once the CN memo is hot
	In, Out    float64 // mean cardinalities (warm runs)
	CacheHits  float64
	CacheMiss  float64
}

// StageTable is the per-stage cost breakdown of the top-k query path —
// where the time of §4 (CN generation), §5 (optimization) and §6
// (execution) actually goes on the benchmark workload, measured through
// EXPLAIN ANALYZE. Every author-pair query shares one keyword shape, so
// the cold column is the single first query on a fresh system (memo
// miss: full CN generation) and the warm column averages the repeats
// (memo hit) — the generate rows differ by exactly what the memo saves.
type StageTable struct {
	K       int
	Queries int
	Rows    []StageRow
	Cold    time.Duration // end-to-end, first query
	Warm    time.Duration // mean end-to-end, memo-warm queries
}

// StageBreakdown measures the per-stage timing columns over the
// workload's author-pair queries at top-K, under the xkeyword preset.
func StageBreakdown(w *Workload, k int) (StageTable, error) {
	tbl := StageTable{K: k, Queries: len(w.Pairs)}
	sys, err := w.load(core.PresetXKeyword)
	if err != nil {
		return tbl, err
	}
	rows := map[string]*StageRow{}
	var order []string
	record := func(pair [2]string, cold bool) error {
		expl, err := sys.ExplainAnalyze(context.Background(), pair[:], k)
		if err != nil {
			return err
		}
		for _, sp := range expl.Stages {
			row := rows[sp.Stage]
			if row == nil {
				row = &StageRow{Stage: sp.Stage}
				rows[sp.Stage] = row
				order = append(order, sp.Stage)
			}
			if cold {
				row.ColdMicros = float64(sp.Duration.Microseconds())
			} else {
				row.WarmMicros += float64(sp.Duration.Microseconds())
				row.In += float64(sp.In)
				row.Out += float64(sp.Out)
				row.CacheHits += float64(sp.CacheHits)
				row.CacheMiss += float64(sp.CacheMisses)
			}
		}
		if cold {
			tbl.Cold = expl.Total
		} else {
			tbl.Warm += expl.Total
		}
		return nil
	}
	if err := record(w.Pairs[0], true); err != nil {
		return tbl, err
	}
	for _, pair := range w.Pairs {
		if err := record(pair, false); err != nil {
			return tbl, err
		}
	}
	n := float64(len(w.Pairs))
	for _, name := range order {
		row := rows[name]
		row.WarmMicros /= n
		row.In /= n
		row.Out /= n
		row.CacheHits /= n
		row.CacheMiss /= n
		tbl.Rows = append(tbl.Rows, *row)
	}
	tbl.Warm /= time.Duration(len(w.Pairs))
	return tbl, nil
}

// Format renders the stage table, one row per pipeline stage.
func (t StageTable) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Pipeline stage breakdown — top-%d, %d query pairs (cold = first query, fresh CN memo; warm = mean with the memo hot)\n", t.K, t.Queries)
	fmt.Fprintf(&sb, "%-9s %12s %12s %8s %8s %9s %9s\n",
		"stage", "cold µs", "warm µs", "in", "out", "hits", "misses")
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%-9s %12.1f %12.1f %8.1f %8.1f %9.1f %9.1f\n",
			r.Stage, r.ColdMicros, r.WarmMicros, r.In, r.Out, r.CacheHits, r.CacheMiss)
	}
	fmt.Fprintf(&sb, "%-9s %12.1f %12.1f\n", "total",
		float64(t.Cold.Microseconds()), float64(t.Warm.Microseconds()))
	return sb.String()
}
