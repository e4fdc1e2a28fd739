package shard_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/qserve"
	"repro/internal/shard"
)

// Both serving fronts satisfy the engine interface — the web layer can
// swap one for the other without caring which is behind it.
var (
	_ qserve.Engine = (*core.System)(nil)
	_ qserve.Engine = (*shard.Coordinator)(nil)
)

// TestScoredEquivalenceAcrossN: the coordinator's scored path must match
// the single-node engine for every scorer, at every shard count — the
// default named explicitly against the single node's "" default, the
// non-default scorers by name (both full-enumerate then rank, so the
// scatter-gather merge is the only thing under test).
func TestScoredEquivalenceAcrossN(t *testing.T) {
	sys := tpchSystem(t)
	vocab := queryVocab(sys)
	if len(vocab) < 4 {
		t.Fatalf("test dataset has only %d multi-posting terms", len(vocab))
	}
	ctx := context.Background()
	queries := [][]string{
		{vocab[0], vocab[1]},
		{vocab[2], vocab[3]},
		{vocab[1], vocab[len(vocab)-1]},
	}
	for _, n := range []int{1, 3} {
		cl := startCluster(t, sys, n, clusterConfig{})
		for _, kws := range queries {
			for _, k := range []int{2, 10} {
				want, _, err := sys.QueryScoredContext(ctx, kws, k, "")
				if err != nil {
					t.Fatal(err)
				}
				got, rx, err := cl.coord.QueryScoredContext(ctx, kws, k, "edgecount")
				if err != nil {
					t.Fatalf("n=%d %v: %v", n, kws, err)
				}
				if rx != nil {
					t.Fatalf("n=%d %v: unexpected relaxation %v", n, kws, rx)
				}
				mustEqualResults(t, fmt.Sprintf("n=%d %v k=%d edgecount", n, kws, k), got, want)

				for _, name := range []string{"weighted", "diversified"} {
					want, _, err := sys.QueryScoredContext(ctx, kws, k, name)
					if err != nil {
						t.Fatal(err)
					}
					got, _, err := cl.coord.QueryScoredContext(ctx, kws, k, name)
					if err != nil {
						t.Fatalf("n=%d %v %s: %v", n, kws, name, err)
					}
					mustEqualResults(t, fmt.Sprintf("n=%d %v k=%d %s", n, kws, k, name), got, want)
				}
			}
		}
	}
}

// Relaxation must survive the scatter-gather: a keyword no shard can
// match is dropped at the coordinator with the same record and the same
// answers as the single-node engine.
func TestCoordinatorRelaxation(t *testing.T) {
	sys := tpchSystem(t)
	sys.Opts.Relax = true // shards share sys in-process, so all sides agree
	vocab := queryVocab(sys)
	ctx := context.Background()
	kws := []string{vocab[0], "zzznotaword"}

	want, rxWant, err := sys.QueryScoredContext(ctx, kws, 10, "")
	if err != nil {
		t.Fatal(err)
	}
	if rxWant == nil || len(rxWant.Dropped) != 1 || rxWant.Dropped[0] != "zzznotaword" {
		t.Fatalf("single-node relaxation = %+v", rxWant)
	}

	for _, n := range []int{1, 3} {
		cl := startCluster(t, sys, n, clusterConfig{})
		got, rx, err := cl.coord.QueryScoredContext(ctx, kws, 10, "")
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if rx == nil || len(rx.Dropped) != 1 || rx.Dropped[0] != "zzznotaword" {
			t.Fatalf("n=%d: coordinator relaxation = %+v", n, rx)
		}
		mustEqualResults(t, fmt.Sprintf("n=%d relaxed", n), got, want)

		// Every keyword unmatched: empty answer plus the full record,
		// not an error.
		empty, rx, err := cl.coord.QueryScoredContext(ctx, []string{"zzznotaword", "qqnever"}, 10, "")
		if err != nil {
			t.Fatalf("n=%d all-dropped: %v", n, err)
		}
		if len(empty) != 0 || rx == nil || len(rx.Dropped) != 2 {
			t.Fatalf("n=%d all-dropped: %d results, relaxation %+v", n, len(empty), rx)
		}
	}
}

func shardCacheStats(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url + "/debug/shardcache")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/shardcache: %s", resp.Status)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestShardExecuteCache: repeating a query hits the shard-local execute
// cache (visible on /debug/shardcache) and answers stay byte-identical.
func TestShardExecuteCache(t *testing.T) {
	sys := tpchSystem(t)
	vocab := queryVocab(sys)
	cl := startCluster(t, sys, 3, clusterConfig{})
	for _, s := range cl.shards {
		s.Cache = qserve.NewResultCache(0, 64, 1<<20, time.Minute)
	}
	ctx := context.Background()
	kws := []string{vocab[0], vocab[1]}

	first, _, err := cl.coord.QueryScoredContext(ctx, kws, 10, "")
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := cl.coord.QueryScoredContext(ctx, kws, 10, "")
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, "cache repeat", second, first)

	hits := 0.0
	for _, ts := range cl.servers {
		st := shardCacheStats(t, ts.URL)
		if st["enabled"] != true {
			t.Fatalf("cache not enabled: %+v", st)
		}
		hits += st["hits"].(float64)
	}
	if hits == 0 {
		t.Fatal("no shard reported an execute-cache hit after a repeated query")
	}
}
