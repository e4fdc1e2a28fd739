package repro

// Benchmarks of the staged query pipeline: BenchmarkQuery is the
// canonical end-to-end top-10 figure (warm CN memo, the steady state a
// server runs in), BenchmarkQueryTitleAuthor the serving benchmark's
// other query template, and BenchmarkPipelineOverhead isolates what the
// observability layer costs — "disabled" runs with a nil Trace (every
// span operation a no-op) and must stay within noise of BenchmarkQuery;
// "traced" is the full EXPLAIN ANALYZE path with per-stage spans.
// BenchmarkSnapshotLoad is the start-up cost of a server that restores
// a saved system instead of running the load stage, and
// BenchmarkMaterialize the connection-relation build inside it.

import (
	"bytes"
	"context"
	"runtime"
	"sort"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/decomp"
	"repro/internal/kwindex"
	"repro/internal/persist"
	"repro/internal/relstore"
)

// BenchmarkQuery measures a warm-memo top-10 author-pair query through
// the staged pipeline — discover, generate (memo hit), reduce,
// optimize, execute, rank — on a system loaded as xkserve loads it.
func BenchmarkQuery(b *testing.B) {
	sys := servedSystem(b)
	w := workload(b)
	pair := w.Pairs[0]
	if _, err := sys.Query(pair[:], 10); err != nil { // warm the CN memo
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Query(pair[:], 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryTitleAuthor measures a warm-memo top-20 query of one
// title word and one author — the serving benchmark's second query
// template, a different shape from the author pair's: the first word of
// the sorted title vocabulary and the token unique to the first author,
// as that benchmark's warm-up draws them.
func BenchmarkQueryTitleAuthor(b *testing.B) {
	sys := servedSystem(b)
	w := workload(b)
	var words []string
	seen := map[string]bool{}
	for _, id := range w.DS.Data.Nodes() {
		if n := w.DS.Data.Node(id); n.Type == "title" {
			for _, t := range kwindex.Tokenize(n.Value) {
				if !seen[t] {
					seen[t] = true
					words = append(words, t)
				}
			}
		}
	}
	sort.Strings(words)
	author := kwindex.Tokenize(datagen.AuthorName(0))
	kws := []string{words[0], author[len(author)-1]}
	if _, err := sys.Query(kws, 20); err != nil { // warm the CN memo
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Query(kws, 20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineOverhead compares the query path with tracing
// disabled (nil Trace, the default for every query but EXPLAIN ANALYZE)
// against the traced EXPLAIN ANALYZE path. The disabled run is the
// <2%-overhead acceptance gate for the pipeline refactor; the traced
// run prices the six spans and the trace allocation.
func BenchmarkPipelineOverhead(b *testing.B) {
	sys := servedSystem(b)
	w := workload(b)
	pair := w.Pairs[0]
	if _, err := sys.Query(pair[:], 10); err != nil { // warm the CN memo
		b.Fatal(err)
	}
	b.Run("disabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sys.Query(pair[:], 10); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("traced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sys.ExplainAnalyze(context.Background(), pair[:], 10); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSnapshotLoad measures persist.Load of the system xkserve
// serves, saved once to memory: decoding the snapshot and rebuilding
// everything it does not store. The snapshot size is reported as
// snapshot-bytes.
func BenchmarkSnapshotLoad(b *testing.B) {
	var snap bytes.Buffer
	if err := persist.Save(&snap, servedSystem(b), datagen.DBLPSpec()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := persist.Load(bytes.NewReader(snap.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(snap.Len()), "snapshot-bytes")
}

// BenchmarkMaterialize measures decomp.Materialize of the served
// system's XKeyword decomposition into a fresh store: every connection
// relation filled, clustered both ways and hash-indexed, as core.Load
// and persist.Load both build them.
func BenchmarkMaterialize(b *testing.B) {
	sys := servedSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := decomp.Materialize(relstore.NewStore(), sys.Obj, sys.Decomp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadScale measures core.LoadPrepared of DBLP at xkgen scales
// 6, 12, 24 and 48 (seed 7, Z = 8; scale 6 is the serving benchmark's
// corpus), and reports with the last system held the live heap after
// runtime.GC (live-MB) and the int64 cells its relations store (cells).
// make bench-scale runs 6 to 24; scale 48 is run by hand:
//
//	go test -run xxx -bench 'BenchmarkLoadScale/48' -cpu 1 -benchtime 3x -benchmem .
func BenchmarkLoadScale(b *testing.B) {
	for _, scale := range loadScales {
		b.Run(strconv.Itoa(scale), func(b *testing.B) {
			p := datagen.DefaultDBLPParams()
			p.Seed = 7
			p.PapersPerYear *= scale
			p.Authors *= scale
			ds, err := datagen.DBLP(p)
			if err != nil {
				b.Fatal(err)
			}
			var sys *core.System
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys = nil // release the previous load before the next
				if sys, err = core.LoadPrepared(ds, core.Options{Z: 8}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			b.ReportMetric(float64(ms.HeapAlloc)/1e6, "live-MB")
			b.ReportMetric(float64(sys.Store.Cells()), "cells")
		})
	}
}

// loadScales are BenchmarkLoadScale's cases.
var loadScales = []int{6, 12, 24, 48}
