package shard_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/kwindex"
	"repro/internal/shard"
)

// tpchSystem builds a small synthetic TPC-H-like system: big enough
// that keywords hit several target objects across partitions, small
// enough that the N=7 cluster runs every query on 8 pipelines quickly.
func tpchSystem(t testing.TB) *core.System {
	t.Helper()
	ds, err := datagen.TPCH(datagen.TPCHParams{
		Persons:           12,
		OrdersPerPerson:   2,
		LineitemsPerOrder: 2,
		Parts:             8,
		SubsPerPart:       2,
		Seed:              7,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.LoadPrepared(&core.Prepared{Schema: ds.Schema, TSS: ds.TSS, Data: ds.Data, Obj: ds.Obj}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// cluster is an in-process shard deployment: n httptest shard servers
// over disjoint PartitionIndex slices of one master, and a coordinator.
type cluster struct {
	coord   *shard.Coordinator
	servers []*httptest.Server
	shards  []*shard.Server
}

// clusterConfig tweaks startCluster per test.
type clusterConfig struct {
	opts shard.CoordinatorOptions
	// local overrides shard i's partition source (nil = PartitionIndex).
	local func(i int, part *kwindex.Index) kwindex.Source
	// wrap decorates shard i's handler (nil = identity) — fault injection.
	wrap func(i int, h http.Handler) http.Handler
}

func startCluster(t testing.TB, sys *core.System, n int, cfg clusterConfig) *cluster {
	t.Helper()
	master := kwindex.Build(sys.Obj)
	c := &cluster{}
	var groups [][]string
	for i := 0; i < n; i++ {
		part := shard.PartitionIndex(master, i, n)
		var local kwindex.Source = part
		if cfg.local != nil {
			local = cfg.local(i, part)
		}
		srv := &shard.Server{Sys: sys, Local: local, ID: i, N: n}
		h := srv.Handler()
		if cfg.wrap != nil {
			h = cfg.wrap(i, h)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		c.shards = append(c.shards, srv)
		c.servers = append(c.servers, ts)
		groups = append(groups, []string{ts.URL})
	}
	if cfg.opts.HealthTTL == 0 {
		cfg.opts.HealthTTL = -1 // tests want fresh states, not 1s-stale ones
	}
	if cfg.opts.Logf == nil {
		cfg.opts.Logf = t.Logf
	}
	c.coord = shard.NewCoordinatorGroups(sys, groups, cfg.opts)
	return c
}

// mustEqualResults asserts byte-identical answers: same length, same
// order, and per position the same score, canonical order key, binding
// and network.
func mustEqualResults(t *testing.T, tag string, got, want []exec.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, single-node %d", tag, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Score != w.Score || g.Ord != w.Ord || !reflect.DeepEqual(g.Bind, w.Bind) || g.Net.Canon() != w.Net.Canon() {
			t.Fatalf("%s: result %d differs:\ngot  score=%d ord=%x bind=%v net=%s\nwant score=%d ord=%x bind=%v net=%s",
				tag, i, g.Score, g.Ord, g.Bind, g.Net.Canon(), w.Score, w.Ord, w.Bind, w.Net.Canon())
		}
	}
}

// queryVocab picks indexed terms worth querying: every term with at
// least two postings (so cross-partition trees exist), deterministic
// order.
func queryVocab(sys *core.System) []string {
	ix := kwindex.Build(sys.Obj)
	var vocab []string
	for _, term := range ix.Terms() {
		if len(ix.ContainingList(term)) >= 2 {
			vocab = append(vocab, term)
		}
	}
	return vocab
}

// TestEquivalenceAcrossN is the randomized equivalence suite: for every
// shard count the sharded deployment must return exactly the single-node
// answer — same result set, same ranks, same deterministic order — for a
// seeded random batch of queries and k values.
func TestEquivalenceAcrossN(t *testing.T) {
	sys := tpchSystem(t)
	vocab := queryVocab(sys)
	if len(vocab) < 4 {
		t.Fatalf("test dataset has only %d multi-posting terms", len(vocab))
	}
	rng := rand.New(rand.NewSource(42))
	type q struct {
		kws []string
		k   int
	}
	queries := []q{
		{[]string{"john", "tv"}, 10}, // the paper's running example shape
		{[]string{"anna", "vcr"}, 5},
	}
	for i := 0; i < 10; i++ {
		nkw := 2
		if rng.Intn(3) == 0 {
			nkw = 3
		}
		var kws []string
		seen := map[string]bool{}
		for len(kws) < nkw {
			w := vocab[rng.Intn(len(vocab))]
			if !seen[w] {
				seen[w] = true
				kws = append(kws, w)
			}
		}
		queries = append(queries, q{kws, []int{1, 2, 5, 10}[rng.Intn(4)]})
	}

	ctx := context.Background()
	for _, n := range []int{1, 2, 3, 7} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			cl := startCluster(t, sys, n, clusterConfig{})
			if err := cl.coord.Validate(ctx); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			for _, qq := range queries {
				want, _, err := sys.QueryScoredContext(ctx, qq.kws, qq.k, "")
				if err != nil {
					t.Fatalf("single-node %v: %v", qq.kws, err)
				}
				got, _, err := cl.coord.QueryScoredContext(ctx, qq.kws, qq.k, "")
				if err != nil {
					t.Fatalf("coordinator %v: %v", qq.kws, err)
				}
				mustEqualResults(t, fmt.Sprintf("%v k=%d", qq.kws, qq.k), got, want)
			}
		})
	}
}

// brokenSource is a FallibleSource whose reads silently come back empty
// while Err reports the failure — the shape of a torn partition file
// behind a diskindex reader.
type brokenSource struct{}

func (brokenSource) ContainingList(string) []kwindex.Posting { return nil }
func (brokenSource) SchemaNodes(string) []string             { return nil }
func (brokenSource) TOSet(string, string) map[int64]bool     { return nil }
func (brokenSource) NumPostings() int                        { return 0 }
func (brokenSource) NumKeywords() int                        { return 0 }
func (brokenSource) Err() error                              { return errors.New("injected partition read failure") }

// TestEquivalenceWithFailoverShard degrades one shard to its rebuilt
// fallback: its primary always fails, the fallback is the true
// partition slice. Answers must stay byte-exact — a shard on its
// fallback answers correctly, it is only *reported* degraded.
func TestEquivalenceWithFailoverShard(t *testing.T) {
	sys := tpchSystem(t)
	const n = 3
	cl := startCluster(t, sys, n, clusterConfig{
		local: func(i int, part *kwindex.Index) kwindex.Source {
			if i != 1 {
				return part
			}
			fo := kwindex.NewFailover(brokenSource{}, func() (kwindex.Source, error) { return part, nil }, nil)
			// Queries never read a shard's partition (execute requests
			// carry their postings), so fail it over with a read here.
			fo.ContainingList("john")
			return fo
		},
	})
	ctx := context.Background()
	for _, kws := range [][]string{{"john", "tv"}, {"anna", "vcr"}, {"maria", "dvd"}} {
		want, _, err := sys.QueryScoredContext(ctx, kws, 10, "")
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := cl.coord.QueryScoredContext(ctx, kws, 10, "")
		if err != nil {
			t.Fatal(err)
		}
		mustEqualResults(t, fmt.Sprint(kws), got, want)
	}
	// The shard's own health must still say degraded, surfaced per-shard.
	states := cl.coord.ShardStates()
	if states[1].State != string(core.IndexDegraded) {
		t.Fatalf("failover shard reports state %q, want %q", states[1].State, core.IndexDegraded)
	}
	if got, err := cl.coord.IndexHealthState(); got != core.IndexDegraded {
		t.Fatalf("coordinator health = %v (%v), want degraded", got, err)
	}
}

// TestExecuteFailureReassignsExactly kills one shard's execute endpoint
// only: execute failures are fully recoverable (the request carries the
// query's global postings), so the coordinator must reassign the dead
// shard's cover to survivors and return the EXACT single-node answer.
func TestExecuteFailureReassignsExactly(t *testing.T) {
	sys := tpchSystem(t)
	const n = 3
	cl := startCluster(t, sys, n, clusterConfig{
		opts: shard.CoordinatorOptions{BreakerThreshold: 100}, // keep the failing shard in rotation
		wrap: func(i int, h http.Handler) http.Handler {
			if i != 2 {
				return h
			}
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/shard/execute" {
					http.Error(w, "injected execute failure", http.StatusInternalServerError)
					return
				}
				h.ServeHTTP(w, r)
			})
		},
	})
	ctx := context.Background()
	want, _, err := sys.QueryScoredContext(ctx, []string{"john", "tv"}, 10, "")
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := cl.coord.QueryScoredContext(ctx, []string{"john", "tv"}, 10, "")
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, "reassigned", got, want)
	if s := cl.coord.Stats(); s.Reassignments == 0 {
		t.Fatal("no reassignments counted — did the injected failure fire?")
	}
}

// TestKillShardMidSuite kills a shard between queries. The next answer
// must still be the exact single-node answer — the dead shard's plan
// classes go to the survivors — and health must say degraded.
func TestKillShardMidSuite(t *testing.T) {
	sys := tpchSystem(t)
	const n = 3
	cl := startCluster(t, sys, n, clusterConfig{})
	ctx := context.Background()
	kws := []string{"john", "tv"}

	want, _, err := sys.QueryScoredContext(ctx, kws, 10, "")
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := cl.coord.QueryScoredContext(ctx, kws, 10, "")
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, "before kill", got, want)

	cl.servers[2].Close() // lights out mid-suite

	got, _, err = cl.coord.QueryScoredContext(ctx, kws, 10, "")
	if err != nil {
		t.Fatalf("2 of 3 shards alive — the query must reassign, not fail: %v", err)
	}
	mustEqualResults(t, "after kill", got, want)
	if h, err := cl.coord.IndexHealthState(); h != core.IndexDegraded {
		t.Fatalf("health with one dead shard = %v (%v), want degraded", h, err)
	}
}
