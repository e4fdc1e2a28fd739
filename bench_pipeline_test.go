package repro

// Benchmarks of the staged query pipeline: BenchmarkQuery is the
// canonical end-to-end top-10 figure (warm CN memo, the steady state a
// server runs in), and BenchmarkPipelineOverhead isolates what the
// observability layer costs — "disabled" runs with a nil Trace (every
// span operation a no-op) and must stay within noise of BenchmarkQuery;
// "traced" is the full EXPLAIN ANALYZE path with per-stage spans.
// BenchmarkSnapshotLoad is the start-up cost of a server that restores
// a saved system instead of running the load stage, and
// BenchmarkMaterialize the connection-relation build inside it.

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/datagen"
	"repro/internal/decomp"
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
