package shard_test

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"
	"testing"

	"repro/internal/exec"
	"repro/internal/kwindex"
	"repro/internal/pipeline"
	"repro/internal/shard"
)

// fullSource is the query-scoped source a coordinator would ship for
// the keywords: the whole master index's lists.
func fullSource(master *kwindex.Index, kws []string) *shard.QuerySource {
	lists := make(map[string][]kwindex.Posting, len(kws))
	for _, kw := range kws {
		lists[shard.NormKeyword(kw)] = master.ContainingList(kw)
	}
	return shard.NewQuerySource(lists, master.NumPostings(), master.NumKeywords())
}

// TestExecuteOwnedPlanPartition: for every shard count and cutoff, the
// covers of a partition of the residue classes — one class per shard,
// or, as after an execute failure, a dead shard's class added to a
// survivor's — each executed by ExecuteOwned and merged by MergeTopK,
// equal the single-node answer; all covers derive one network checksum
// and plan count.
func TestExecuteOwnedPlanPartition(t *testing.T) {
	sys := tpchSystem(t)
	master := kwindex.Build(sys.Obj)
	ctx := context.Background()
	queries := [][]string{{"john", "tv"}, {"anna", "vcr"}, {"john", "john"}, {"vcr"}}
	for _, n := range []int{1, 2, 3, 7} {
		// covers[0] is the healthy assignment; covers[1] reassigns the
		// last class to shard 0, as the coordinator does when the last
		// shard's execute fails.
		healthy := make([][]int, n)
		for p := range healthy {
			healthy[p] = []int{p}
		}
		assignments := [][][]int{healthy}
		if n > 1 {
			re := make([][]int, n-1)
			for p := range re {
				re[p] = []int{p}
			}
			re[0] = append(re[0], n-1)
			assignments = append(assignments, re)
		}
		for _, k := range []int{1, 10, 0} {
			for _, kws := range queries {
				var want []exec.Result
				var err error
				if k > 0 {
					want, _, err = sys.QueryScoredContext(ctx, kws, k, "")
				} else {
					q := &pipeline.Query{Keywords: kws, Mode: pipeline.ModeAll, Strategy: exec.NestedLoop}
					err = sys.Run(ctx, q)
					want = q.Results
				}
				if err != nil {
					t.Fatal(err)
				}
				for ai, covers := range assignments {
					tag := fmt.Sprintf("n=%d k=%d %v assignment %d", n, k, kws, ai)
					src := fullSource(master, kws)
					var streams [][]exec.Result
					var crc uint32
					plans := -1
					for _, cover := range covers {
						rs, c, np, err := shard.ExecuteOwned(ctx, sys, src, &shard.ExecRequest{
							Keywords: kws, K: k, Strategy: uint8(exec.NestedLoop), N: n, Parts: cover})
						if err != nil {
							t.Fatalf("%s cover %v: %v", tag, cover, err)
						}
						for _, r := range rs {
							if pi := int(r.Ord >> 32); !contains(cover, pi%n) {
								t.Fatalf("%s cover %v returned a result of plan %d", tag, cover, pi)
							}
						}
						if plans >= 0 && (c != crc || np != plans) {
							t.Fatalf("%s cover %v derived crc %08x / %d plans, an earlier cover %08x / %d", tag, cover, c, np, crc, plans)
						}
						crc, plans = c, np
						streams = append(streams, rs)
					}
					mustEqualResults(t, tag, shard.MergeTopK(streams, k), want)
				}
			}
		}
	}
	if _, _, _, err := shard.ExecuteOwned(ctx, sys, fullSource(master, []string{"john"}), &shard.ExecRequest{
		Keywords: []string{"john"}, K: 1, N: 2, Parts: []int{2}}); err == nil {
		t.Fatal("a cover naming class 2 of 2 was accepted")
	}
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// TestEmptyCoverNotCalled: a query costs each shard at most one
// request, and that request is /shard/execute — the coordinator reads
// postings from its own index. With more shards than plans, the shards
// whose residue class holds no plan get no request at all — and the
// answer is still the single node's.
func TestEmptyCoverNotCalled(t *testing.T) {
	sys := tpchSystem(t)
	const n = 7
	kws := []string{"vcr"}
	plans, err := sys.Plans(kws)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) == 0 || len(plans) >= n {
		t.Fatalf("%v derives %d plans; the test needs between 1 and %d", kws, len(plans), n-1)
	}
	var executes, others [n]atomic.Int64
	cl := startCluster(t, sys, n, clusterConfig{
		wrap: func(i int, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/shard/execute" {
					executes[i].Add(1)
				} else {
					others[i].Add(1)
				}
				h.ServeHTTP(w, r)
			})
		},
	})
	ctx := context.Background()
	want, _, err := sys.QueryScoredContext(ctx, kws, 10, "")
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := cl.coord.QueryScoredContext(ctx, kws, 10, "")
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, "fewer plans than shards", got, want)
	for i := range executes {
		calls := executes[i].Load()
		if i < len(plans) && calls != 1 {
			t.Errorf("shard %d owns plan %d but got %d execute requests", i, i, calls)
		}
		if i >= len(plans) && calls != 0 {
			t.Errorf("shard %d owns no plan of %d but got %d execute requests", i, len(plans), calls)
		}
		if o := others[i].Load(); o != 0 {
			t.Errorf("shard %d got %d requests besides execute for one query", i, o)
		}
	}
}
