package shard_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/kwindex"
	"repro/internal/shard"
)

// replicaCluster is an in-process replicated deployment: n shard groups
// of r replicas each, every replica an httptest server over the SAME
// partition slice (byte-identical data, as real deployments copy the
// shard directory), and a coordinator over the group topology.
type replicaCluster struct {
	coord   *shard.Coordinator
	servers [][]*httptest.Server // [shard][replica]
}

// replicaConfig tweaks startReplicatedCluster per test.
type replicaConfig struct {
	opts shard.CoordinatorOptions
	// wrap decorates shard i replica ri's handler (nil = identity).
	wrap func(i, ri int, h http.Handler) http.Handler
}

func startReplicatedCluster(t testing.TB, sys *core.System, n, r int, cfg replicaConfig) *replicaCluster {
	t.Helper()
	master := kwindex.Build(sys.Obj)
	c := &replicaCluster{}
	var groups [][]string
	for i := 0; i < n; i++ {
		part := shard.PartitionIndex(master, i, n)
		var reps []*httptest.Server
		var addrs []string
		for ri := 0; ri < r; ri++ {
			srv := &shard.Server{Sys: sys, Local: part, ID: i, N: n}
			h := http.Handler(srv.Handler())
			if cfg.wrap != nil {
				h = cfg.wrap(i, ri, h)
			}
			ts := httptest.NewServer(h)
			t.Cleanup(ts.Close)
			reps = append(reps, ts)
			addrs = append(addrs, ts.URL)
		}
		c.servers = append(c.servers, reps)
		groups = append(groups, addrs)
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

// runEquivalenceSuite checks a seeded batch of queries against the
// single-node answer, requiring byte-identical results.
func runEquivalenceSuite(t *testing.T, sys *core.System, coord *shard.Coordinator, tag string) {
	t.Helper()
	ctx := context.Background()
	for _, kws := range [][]string{{"john", "tv"}, {"anna", "vcr"}, {"maria", "dvd"}} {
		for _, k := range []int{1, 5, 10} {
			want, _, err := sys.QueryScoredContext(ctx, kws, k, "")
			if err != nil {
				t.Fatalf("%s: single-node %v: %v", tag, kws, err)
			}
			got, _, err := coord.QueryScoredContext(ctx, kws, k, "")
			if err != nil {
				t.Fatalf("%s: coordinator %v: %v", tag, kws, err)
			}
			mustEqualResults(t, fmt.Sprintf("%s %v k=%d", tag, kws, k), got, want)
		}
	}
}

// TestReplicaEquivalenceAcrossR is the randomized equivalence suite for
// replica counts R∈{1,2,3}: a healthy replicated deployment must return
// exactly the single-node answer (replicas serve identical partitions,
// so routing and hedging cannot change a byte), and Validate must
// accept the group CRC cross-check.
func TestReplicaEquivalenceAcrossR(t *testing.T) {
	sys := tpchSystem(t)
	for _, r := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("r=%d", r), func(t *testing.T) {
			cl := startReplicatedCluster(t, sys, 3, r, replicaConfig{})
			if err := cl.coord.Validate(context.Background()); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if got := cl.coord.Replicas(); got != 3*r {
				t.Fatalf("Replicas() = %d, want %d", got, 3*r)
			}
			runEquivalenceSuite(t, sys, cl.coord, fmt.Sprintf("r=%d", r))
		})
	}
}

// TestReplicaKillOneStaysExact kills one replica of EVERY group
// mid-suite: answers must stay byte-identical to single-node, served by
// the sibling through failover rather than by reassigning the group's
// plan classes.
func TestReplicaKillOneStaysExact(t *testing.T) {
	sys := tpchSystem(t)
	cl := startReplicatedCluster(t, sys, 3, 2, replicaConfig{
		opts: shard.CoordinatorOptions{Retry: fault.RetryPolicy{Attempts: 1}},
	})
	runEquivalenceSuite(t, sys, cl.coord, "before kill")
	for i := range cl.servers {
		cl.servers[i][0].Close() // lights out for one replica per group
	}
	runEquivalenceSuite(t, sys, cl.coord, "after kill")
	if s := cl.coord.Stats(); s.Failovers == 0 {
		t.Fatal("killed replicas but Failovers did not move — who answered?")
	}
	// Health: still a live replica per group, so never unavailable; the
	// dead siblings make it degraded, with per-replica detail.
	if got, err := cl.coord.IndexHealthState(); got != core.IndexDegraded {
		t.Fatalf("health with one dead replica per group = %v (%v), want degraded", got, err)
	}
	for i, st := range cl.coord.ShardStates() {
		if len(st.Replicas) != 2 {
			t.Fatalf("shard %d reports %d replica states, want 2", i, len(st.Replicas))
		}
		if st.State == string(core.IndexUnavailable) {
			t.Fatalf("shard %d reported unavailable with a live replica: %+v", i, st)
		}
		dead := st.Replicas[0]
		if dead.State != string(core.IndexUnavailable) || dead.LastErr == "" {
			t.Fatalf("shard %d dead replica state %+v, want unavailable with last-error", i, dead)
		}
	}
}

// TestReplicaSlowOneStaysExact hangs one replica of every group past
// the request timeout: the coordinator must fail over to the sibling
// and keep answers byte-identical, within the timeout budget.
func TestReplicaSlowOneStaysExact(t *testing.T) {
	sys := tpchSystem(t)
	release := make(chan struct{})
	defer close(release)
	var slow atomic.Bool
	cl := startReplicatedCluster(t, sys, 3, 2, replicaConfig{
		opts: shard.CoordinatorOptions{
			RequestTimeout: 150 * time.Millisecond,
			Retry:          fault.RetryPolicy{Attempts: 1},
			HedgeDisabled:  true, // isolate the failover path
		},
		wrap: func(i, ri int, h http.Handler) http.Handler {
			if ri != 0 {
				return h
			}
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if slow.Load() {
					<-release // hold until teardown: a hung, not slow, replica
					return
				}
				h.ServeHTTP(w, r)
			})
		},
	})
	runEquivalenceSuite(t, sys, cl.coord, "before slowdown")
	slow.Store(true)
	start := time.Now()
	runEquivalenceSuite(t, sys, cl.coord, "during slowdown")
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Fatalf("suite stalled %v behind hung replicas", elapsed)
	}
}

// TestReplicaFlapStaysExact flaps one replica per group — alternating
// hard failure and healthy service per request — which is nastier than
// a clean kill: the breaker keeps re-admitting it. Answers must stay
// byte-identical throughout.
func TestReplicaFlapStaysExact(t *testing.T) {
	sys := tpchSystem(t)
	var calls atomic.Int64
	cl := startReplicatedCluster(t, sys, 3, 2, replicaConfig{
		opts: shard.CoordinatorOptions{
			Retry: fault.RetryPolicy{Attempts: 1}, // failover, not retry, absorbs the flaps
		},
		wrap: func(i, ri int, h http.Handler) http.Handler {
			if ri != 0 {
				return h
			}
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if calls.Add(1)%2 == 1 {
					http.Error(w, "flapping replica", http.StatusInternalServerError)
					return
				}
				h.ServeHTTP(w, r)
			})
		},
	})
	for round := 0; round < 3; round++ {
		runEquivalenceSuite(t, sys, cl.coord, fmt.Sprintf("flap round %d", round))
	}
}

// TestGroupLossDegradesLoudly kills BOTH replicas of one group: the
// other groups take over its plan classes, so the answer stays
// byte-identical to single-node, and health says degraded — loudly, on
// /healthz, rather than in the answer.
func TestGroupLossDegradesLoudly(t *testing.T) {
	sys := tpchSystem(t)
	cl := startReplicatedCluster(t, sys, 3, 2, replicaConfig{
		opts: shard.CoordinatorOptions{Retry: fault.RetryPolicy{Attempts: 1}},
	})
	ctx := context.Background()
	kws := []string{"john", "tv"}
	want, _, err := sys.QueryScoredContext(ctx, kws, 10, "")
	if err != nil {
		t.Fatal(err)
	}
	cl.servers[2][0].Close()
	cl.servers[2][1].Close() // the whole group, not one process

	got, _, err := cl.coord.QueryScoredContext(ctx, kws, 10, "")
	if err != nil {
		t.Fatalf("2 of 3 groups alive — the query must reassign, not fail: %v", err)
	}
	mustEqualResults(t, "one group down", got, want)
	if s := cl.coord.Stats(); s.Reassignments == 0 {
		t.Fatal("whole group down but no reassignment counted — who executed its class?")
	}
	if got, _ := cl.coord.IndexHealthState(); got != core.IndexDegraded {
		t.Fatalf("health with one dead group = %v, want degraded", got)
	}
}

// TestGroupLossBelowQuorumRefuses kills every replica of two groups out
// of three: the last group executes every plan class and the answer
// stays exact. Then it kills the last group: with no group left the
// coordinator must refuse with ErrNoQuorum — redundancy changes how
// rarely this fires, not what it means.
func TestGroupLossBelowQuorumRefuses(t *testing.T) {
	sys := tpchSystem(t)
	cl := startReplicatedCluster(t, sys, 3, 2, replicaConfig{
		opts: shard.CoordinatorOptions{Retry: fault.RetryPolicy{Attempts: 1}},
	})
	ctx := context.Background()
	kws := []string{"john", "tv"}
	want, _, err := sys.QueryScoredContext(ctx, kws, 10, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 2} {
		cl.servers[i][0].Close()
		cl.servers[i][1].Close()
	}
	got, _, err := cl.coord.QueryScoredContext(ctx, kws, 10, "")
	if err != nil {
		t.Fatalf("1 of 3 groups alive — the query must reassign, not fail: %v", err)
	}
	mustEqualResults(t, "1 of 3 groups alive", got, want)
	if got, _ := cl.coord.IndexHealthState(); got != core.IndexDegraded {
		t.Fatalf("health with 1 of 3 groups alive = %v, want degraded", got)
	}

	cl.servers[1][0].Close()
	cl.servers[1][1].Close()
	_, _, err = cl.coord.QueryScoredContext(ctx, kws, 10, "")
	if !errors.Is(err, shard.ErrNoQuorum) {
		t.Fatalf("0 of 3 groups alive: err = %v, want ErrNoQuorum", err)
	}
	if got, _ := cl.coord.IndexHealthState(); got != core.IndexUnavailable {
		t.Fatalf("health with every group down = %v, want unavailable", got)
	}
}

// TestHedgeFiresAndPreservesAnswer turns a primed primary slow: the
// p95-derived hedge must fire at the fast sibling, win the race, and —
// because replicas serve identical partitions — leave every answer
// byte-identical.
func TestHedgeFiresAndPreservesAnswer(t *testing.T) {
	sys := tpchSystem(t)
	var slow atomic.Bool
	cl := startReplicatedCluster(t, sys, 2, 2, replicaConfig{
		opts: shard.CoordinatorOptions{
			HedgeMinSamples: 1,
			HedgeMaxDelay:   5 * time.Millisecond,
			HedgeBudgetPct:  100, // the budget is exercised separately
			Retry:           fault.RetryPolicy{Attempts: 1},
		},
		wrap: func(i, ri int, h http.Handler) http.Handler {
			if ri != 0 {
				return h
			}
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if slow.Load() {
					time.Sleep(40 * time.Millisecond) // past any p95 the warmup recorded
				}
				h.ServeHTTP(w, r)
			})
		},
	})
	// Warmup primes replica 0's histograms while fast, keeping it the
	// preferred (proven) replica when the slowdown starts.
	runEquivalenceSuite(t, sys, cl.coord, "warmup")
	slow.Store(true)
	runEquivalenceSuite(t, sys, cl.coord, "slow primary")
	s := cl.coord.Stats()
	if s.Hedges == 0 {
		t.Fatal("slow primary past its p95 but no hedges fired")
	}
	if s.HedgeWins == 0 {
		t.Fatal("hedges fired at a fast sibling but never won")
	}
}

// TestHedgeBudgetCaps drives a permanently slow primary with a 0%-ish
// budget: hedges must stay within the configured percentage of group
// requests instead of doubling cluster load.
func TestHedgeBudgetCaps(t *testing.T) {
	sys := tpchSystem(t)
	cl := startReplicatedCluster(t, sys, 2, 2, replicaConfig{
		opts: shard.CoordinatorOptions{
			HedgeMinSamples: 1,
			HedgeMaxDelay:   2 * time.Millisecond,
			HedgeBudgetPct:  1,
			Retry:           fault.RetryPolicy{Attempts: 1},
		},
		wrap: func(i, ri int, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				time.Sleep(8 * time.Millisecond) // everyone slow: every request hedge-eligible
				h.ServeHTTP(w, r)
			})
		},
	})
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if _, _, err := cl.coord.QueryScoredContext(ctx, []string{"john", "tv"}, 5, ""); err != nil {
			t.Fatal(err)
		}
	}
	s := cl.coord.Stats()
	if s.Hedges == 0 {
		t.Fatal("budget must admit the first hedge (grace), not zero")
	}
	// fired ≤ 1% of requests + the grace hedge.
	if limit := s.Queries*3/100 + 2; s.Hedges > limit {
		t.Fatalf("hedges %d blew the 1%% budget (limit ~%d)", s.Hedges, limit)
	}
}

// TestValidateCatchesDivergentReplicas wires a group whose two
// "replicas" serve different partitions: the connect-time CRC
// cross-check must refuse — failover and hedging are only
// byte-preserving over identical copies.
func TestValidateCatchesDivergentReplicas(t *testing.T) {
	sys := tpchSystem(t)
	master := kwindex.Build(sys.Obj)
	mkServer := func(id, n int, part *kwindex.Index) *httptest.Server {
		srv := &shard.Server{Sys: sys, Local: part, ID: id, N: n}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return ts
	}
	const n = 2
	good0 := mkServer(0, n, shard.PartitionIndex(master, 0, n))
	good1 := mkServer(1, n, shard.PartitionIndex(master, 1, n))
	// An impostor replica for shard 0 serving shard 1's slice but
	// identifying as shard 0 — the id check passes, the CRC must not.
	impostor := mkServer(0, n, shard.PartitionIndex(master, 1, n))

	coord := shard.NewCoordinatorGroups(sys,
		[][]string{{good0.URL, impostor.URL}, {good1.URL}},
		shard.CoordinatorOptions{HealthTTL: -1, Logf: t.Logf})
	err := coord.Validate(context.Background())
	if err == nil {
		t.Fatal("Validate accepted divergent replicas within one group")
	}
	t.Logf("Validate refused: %v", err)
}
