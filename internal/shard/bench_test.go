package shard_test

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/kwindex"
	"repro/internal/shard"
)

// BenchmarkShardSingleNode is the baseline the scatter-gather overhead
// is measured against: the same system answering the same query without
// the wire.
func BenchmarkShardSingleNode(b *testing.B) {
	sys := tpchSystem(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sys.QueryScoredContext(ctx, []string{"john", "tv"}, 10, ""); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardCoordinator measures the full scatter-gather round trip
// — posting reads from the coordinator's index, network derivation,
// execute fan-out, merge — over in-process HTTP shards, per shard count.
func BenchmarkShardCoordinator(b *testing.B) {
	sys := tpchSystem(b)
	ctx := context.Background()
	for _, n := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cl := startCluster(b, sys, n, clusterConfig{})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := cl.coord.QueryScoredContext(ctx, []string{"john", "tv"}, 10, ""); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardOneDown measures the steady state with one of three
// shards dead and its breaker open: each query pays one fast-fail check,
// then reassigns the dead shard's plan class to a survivor, and the
// answer stays exact.
func BenchmarkShardOneDown(b *testing.B) {
	sys := tpchSystem(b)
	cl := startCluster(b, sys, 3, clusterConfig{
		opts: shard.CoordinatorOptions{
			Retry:          fault.RetryPolicy{Attempts: 1},
			RequestTimeout: time.Second,
			Logf:           func(string, ...any) {}, // the per-query reassignment line is the bench's hot path
		},
	})
	cl.servers[1].Close()
	ctx := context.Background()
	// Open the breaker before timing so the loop measures steady state.
	for i := 0; i < 4; i++ {
		if _, _, err := cl.coord.QueryScoredContext(ctx, []string{"john", "tv"}, 10, ""); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cl.coord.QueryScoredContext(ctx, []string{"john", "tv"}, 10, ""); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardReplicated measures the replicated-coordinator round
// trip per replica count: the group routing layer (health ordering,
// hedge bookkeeping) is on the per-request path, so its overhead over
// the R=1 case must stay visible in the trajectory.
func BenchmarkShardReplicated(b *testing.B) {
	sys := tpchSystem(b)
	ctx := context.Background()
	for _, r := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			cl := startReplicatedCluster(b, sys, 2, r, replicaConfig{})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := cl.coord.QueryScoredContext(ctx, []string{"john", "tv"}, 10, ""); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardHedgedTail measures what hedging buys: one replica per
// group stalls every tenth request by 10ms (the shape of a paged-out
// read or a GC pause), and the hedge=off/hedge=on sub-benches report
// the per-query p99 alongside the mean. The p99 improvement is the
// acceptance figure recorded in BENCH_shard.json.
func BenchmarkShardHedgedTail(b *testing.B) {
	sys := tpchSystem(b)
	ctx := context.Background()
	const stallEvery, stall = 10, 10 * time.Millisecond
	for _, hedge := range []bool{false, true} {
		b.Run(fmt.Sprintf("hedge=%v", hedge), func(b *testing.B) {
			var reqs atomic.Int64
			cl := startReplicatedCluster(b, sys, 2, 2, replicaConfig{
				opts: shard.CoordinatorOptions{
					HedgeDisabled:   !hedge,
					HedgeMinSamples: 1,
					HedgeMaxDelay:   2 * time.Millisecond,
					HedgeBudgetPct:  30, // above the ~10% stall rate
					Retry:           fault.RetryPolicy{Attempts: 1},
				},
				wrap: func(i, ri int, h http.Handler) http.Handler {
					if ri != 0 {
						return h
					}
					return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
						if reqs.Add(1)%stallEvery == 0 {
							time.Sleep(stall)
						}
						h.ServeHTTP(w, r)
					})
				},
			})
			// Warmup primes the preferred replica's latency histograms so
			// the p95-derived hedge delay exists from the first timed query.
			for i := 0; i < 5; i++ {
				if _, _, err := cl.coord.QueryScoredContext(ctx, []string{"john", "tv"}, 10, ""); err != nil {
					b.Fatal(err)
				}
			}
			lats := make([]time.Duration, 0, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				if _, _, err := cl.coord.QueryScoredContext(ctx, []string{"john", "tv"}, 10, ""); err != nil {
					b.Fatal(err)
				}
				lats = append(lats, time.Since(start))
			}
			b.StopTimer()
			sort.Slice(lats, func(a, c int) bool { return lats[a] < lats[c] })
			if len(lats) > 0 {
				p99 := lats[len(lats)*99/100]
				b.ReportMetric(float64(p99.Microseconds())/1000, "p99-ms")
			}
			if hedge {
				if s := cl.coord.Stats(); s.Hedges > 0 {
					b.ReportMetric(float64(s.HedgeWins)*100/float64(s.Hedges), "hedge-win-%")
				}
			}
		})
	}
}

// BenchmarkShardMergeTopK measures merge throughput: 8 shard streams of
// 4k results each, merged to a top-10 (early termination) and to the
// full set.
func BenchmarkShardMergeTopK(b *testing.B) {
	const nStreams, perStream = 8, 4096
	streams := make([][]exec.Result, nStreams)
	for s := range streams {
		rs := make([]exec.Result, perStream)
		for i := range rs {
			// Ascending per stream, interleaved across streams.
			rs[i] = exec.Result{Score: 1 + i/64, Ord: exec.MakeOrd(i/64, i%64*nStreams+s)}
		}
		streams[s] = rs
	}
	for _, k := range []int{10, 0} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				shard.MergeTopK(streams, k)
			}
		})
	}
}

// BenchmarkShardSplit measures the offline partitioner: master index →
// three on-disk shard directories plus manifest.
func BenchmarkShardSplit(b *testing.B) {
	sys := tpchSystem(b)
	ix := kwindex.Build(sys.Obj)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dir := b.TempDir()
		if _, err := shard.Split(ix, dir, 3, shard.SplitOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
