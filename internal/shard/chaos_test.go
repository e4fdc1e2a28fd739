package shard_test

import (
	"context"
	"errors"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/fault"
	"repro/internal/shard"
)

// TestQuorumLossRefuses kills shards one by one. While any shard lives
// it executes every plan class, so with 1 of 3 alive the answer is
// still byte-identical to single-node (health degraded); with none left
// the coordinator must refuse with ErrNoQuorum and report unavailable,
// never serve an empty "answer".
func TestQuorumLossRefuses(t *testing.T) {
	sys := tpchSystem(t)
	cl := startCluster(t, sys, 3, clusterConfig{})
	ctx := context.Background()
	kws := []string{"john", "tv"}
	want, _, err := sys.QueryScoredContext(ctx, kws, 10, "")
	if err != nil {
		t.Fatal(err)
	}
	cl.servers[0].Close()
	cl.servers[2].Close()
	got, _, err := cl.coord.QueryScoredContext(ctx, kws, 10, "")
	if err != nil {
		t.Fatalf("1 of 3 shards alive — the query must reassign, not fail: %v", err)
	}
	mustEqualResults(t, "1 of 3 alive", got, want)
	if h, err := cl.coord.IndexHealthState(); h != core.IndexDegraded {
		t.Fatalf("health with 1 of 3 shards alive = %v (%v), want degraded", h, err)
	}

	cl.servers[1].Close() // every group down
	_, _, err = cl.coord.QueryScoredContext(ctx, kws, 10, "")
	if !errors.Is(err, shard.ErrNoQuorum) {
		t.Fatalf("0 of 3 shards alive: err = %v, want ErrNoQuorum", err)
	}
	if got, _ := cl.coord.IndexHealthState(); got != core.IndexUnavailable {
		t.Fatalf("health with every shard down = %v, want unavailable", got)
	}
}

// TestCoordinatorIndexUnavailable: the coordinator's own index is where
// every query's postings come from, so its failure with no fallback
// must make the engine unavailable — not answer empty lists as
// "nothing matches" while every shard is healthy.
func TestCoordinatorIndexUnavailable(t *testing.T) {
	sys := tpchSystem(t)
	cl := startCluster(t, sys, 2, clusterConfig{})
	if h, err := cl.coord.IndexHealthState(); h != core.IndexOK {
		t.Fatalf("healthy cluster health = %v (%v), want ok", h, err)
	}
	sys.Index = brokenSource{}
	if h, _ := cl.coord.IndexHealthState(); h != core.IndexUnavailable {
		t.Fatalf("coordinator index failed: health = %v, want unavailable", h)
	}
}

// TestSlowShardDegrades makes one shard hang past the request timeout:
// it must be treated like a dead shard — its plan classes reassigned, the
// answer exact — within the timeout budget instead of stalling behind
// the stray.
func TestSlowShardDegrades(t *testing.T) {
	sys := tpchSystem(t)
	release := make(chan struct{})
	defer close(release)
	cl := startCluster(t, sys, 3, clusterConfig{
		opts: shard.CoordinatorOptions{
			RequestTimeout: 150 * time.Millisecond,
			Retry:          fault.RetryPolicy{Attempts: 1},
		},
		wrap: func(i int, h http.Handler) http.Handler {
			if i != 1 {
				return h
			}
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				<-release // hold every request until test teardown
			})
		},
	})
	ctx := context.Background()
	want, _, err := sys.QueryScoredContext(ctx, []string{"john", "tv"}, 10, "")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rs, _, err := cl.coord.QueryScoredContext(ctx, []string{"john", "tv"}, 10, "")
	if err != nil {
		t.Fatalf("slow shard must be reassigned around, not fail: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("query stalled %v behind the slow shard", elapsed)
	}
	mustEqualResults(t, "slow shard", rs, want)
	if h, err := cl.coord.IndexHealthState(); h != core.IndexDegraded {
		t.Fatalf("health with a hung shard = %v (%v), want degraded", h, err)
	}
}

// TestColdShapeOutlastsRequestTimeout: a shard whose cold shape build
// takes longer than the coordinator's request timeout fails those
// requests, but the build goes on and publishes, so a repeated query is
// answered once the shard is warm. Three DBLP title words at Z = 8
// take about half a second to build; each shard request gets 100 ms.
func TestColdShapeOutlastsRequestTimeout(t *testing.T) {
	ds, err := datagen.DBLP(datagen.DefaultDBLPParams())
	if err != nil {
		t.Fatal(err)
	}
	load := func() *core.System {
		sys, err := core.LoadPrepared(ds, core.Options{Z: 8})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	sys := load()
	cl := startCluster(t, sys, 2, clusterConfig{
		shardSys: load(),
		opts: shard.CoordinatorOptions{
			RequestTimeout: 100 * time.Millisecond,
			BreakerWindow:  100 * time.Millisecond,
		},
	})
	kws := []string{"candidate", "databases", "efficient"} // DBLP title words
	ctx := context.Background()
	want, _, err := sys.QueryScoredContext(ctx, kws, 10, "")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for tries := 1; ; tries++ {
		got, _, err := cl.coord.QueryScoredContext(ctx, kws, 10, "")
		if err == nil {
			if tries == 1 {
				t.Fatalf("%q answered cold within the 100ms shard timeout; the test needs a slower shape", kws)
			}
			mustEqualResults(t, "warm shards", got, want)
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%q still failing after %d tries: shard builds cut at the request timeout never warm: %v", kws, tries, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestBreakerOpensAndRecovers drives one shard through fail → breaker
// open → recovery: while open the shard is reported unavailable without
// probing it; after the window a half-open probe readmits it.
func TestBreakerOpensAndRecovers(t *testing.T) {
	sys := tpchSystem(t)
	var failing atomic.Bool
	failing.Store(true)
	var hits atomic.Int64
	cl := startCluster(t, sys, 3, clusterConfig{
		opts: shard.CoordinatorOptions{
			BreakerThreshold: 2,
			BreakerWindow:    100 * time.Millisecond,
			Retry:            fault.RetryPolicy{Attempts: 1},
		},
		wrap: func(i int, h http.Handler) http.Handler {
			if i != 0 {
				return h
			}
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				hits.Add(1)
				if failing.Load() {
					http.Error(w, "injected outage", http.StatusInternalServerError)
					return
				}
				h.ServeHTTP(w, r)
			})
		},
	})
	ctx := context.Background()
	kws := []string{"john", "tv"}

	// Two failing queries reach the threshold and open the breaker.
	for i := 0; i < 2; i++ {
		if _, _, err := cl.coord.QueryScoredContext(ctx, kws, 5, ""); err != nil {
			t.Fatalf("query %d: survivors hold every class, want success: %v", i, err)
		}
	}
	before := hits.Load()
	states := cl.coord.ShardStates()
	if states[0].State != string(core.IndexUnavailable) || states[0].Detail != "circuit breaker open" {
		t.Fatalf("shard 0 state = %q (%q), want unavailable via open breaker", states[0].State, states[0].Detail)
	}
	if hits.Load() != before {
		t.Fatal("ShardStates probed a shard whose breaker is open — the breaker exists to avoid that")
	}

	// Heal the shard; after the window the half-open probe readmits it.
	failing.Store(false)
	time.Sleep(150 * time.Millisecond)
	if _, _, err := cl.coord.QueryScoredContext(ctx, kws, 5, ""); err != nil {
		t.Fatalf("post-recovery query: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if st := cl.coord.ShardStates(); st[0].State == string(core.IndexOK) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard 0 never recovered: %+v", cl.coord.ShardStates()[0])
		}
		time.Sleep(20 * time.Millisecond)
	}
	if _, _, err := cl.coord.QueryScoredContext(ctx, kws, 5, ""); err != nil {
		t.Fatalf("recovered cluster still failing: %v", err)
	}
}

// TestRetryMasksTransientFailure fails each shard-0 request once: the
// retry policy must absorb the blip — exact answer, no reassignment.
func TestRetryMasksTransientFailure(t *testing.T) {
	sys := tpchSystem(t)
	var calls atomic.Int64
	cl := startCluster(t, sys, 2, clusterConfig{
		opts: shard.CoordinatorOptions{
			Retry: fault.RetryPolicy{Attempts: 2, Base: time.Millisecond, Max: 5 * time.Millisecond},
		},
		wrap: func(i int, h http.Handler) http.Handler {
			if i != 0 {
				return h
			}
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if calls.Add(1)%2 == 1 { // every odd attempt fails
					http.Error(w, "transient blip", http.StatusInternalServerError)
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
		t.Fatalf("retry did not mask the transient failure: %v", err)
	}
	if s := cl.coord.Stats(); s.Reassignments != 0 {
		t.Fatalf("masked transient failure still reassigned %d plan classes", s.Reassignments)
	}
	mustEqualResults(t, "retried", got, want)
}

// TestValidateCatchesMisconfiguration wires coordinators to clusters
// that lie about themselves: wrong shard count, wrong partition CRC and
// a split cut from another index than the coordinator's must all fail
// Validate before any traffic is served.
func TestValidateCatchesMisconfiguration(t *testing.T) {
	sys := tpchSystem(t)
	cl := startCluster(t, sys, 2, clusterConfig{})
	ctx := context.Background()
	opts := func(man *shard.Manifest) shard.CoordinatorOptions {
		return shard.CoordinatorOptions{Manifest: man, HealthTTL: -1, Logf: t.Logf}
	}
	shards := [][]string{{cl.servers[0].URL}, {cl.servers[1].URL}}

	// A 3-shard coordinator pointed at a 2-shard deployment: the third
	// address is shard 0 again, which identifies as 0/2, not 2/3.
	wrong := shard.NewCoordinatorGroups(sys, append(shards, []string{cl.servers[0].URL}), opts(nil))
	if err := wrong.Validate(ctx); err == nil {
		t.Fatal("Validate accepted a shard identifying with the wrong id/count")
	}

	// A manifest whose recorded CRC disagrees with what the shard serves.
	half := sys.Index.NumPostings() / 2
	man := &shard.Manifest{Version: 1, Scheme: shard.HashScheme, N: 2, Shards: []shard.ShardInfo{
		{ID: 0, CRC: 0x12345678, Postings: half}, {ID: 1, CRC: 0x12345678, Postings: sys.Index.NumPostings() - half},
	}}
	if err := shard.NewCoordinatorGroups(sys, shards, opts(man)).Validate(ctx); err == nil {
		t.Fatal("Validate accepted a shard serving a different partition CRC than the manifest records")
	}

	// CRCs agree (in-memory partitions report 0), but the split holds
	// more postings than the coordinator's index: coordinator and shards
	// were loaded from different snapshots.
	man.Shards[0].CRC, man.Shards[1].CRC = 0, 0
	if err := shard.NewCoordinatorGroups(sys, shards, opts(man)).Validate(ctx); err != nil {
		t.Fatalf("Validate refused a matching split: %v", err)
	}
	man.Shards[1].Postings++
	if err := shard.NewCoordinatorGroups(sys, shards, opts(man)).Validate(ctx); err == nil {
		t.Fatal("Validate accepted a split whose postings differ from the coordinator's index")
	}
}

// TestCancellationPropagates cancels the query context mid-flight: the
// coordinator must return the context error promptly, not grind through
// retries against a hung shard.
func TestCancellationPropagates(t *testing.T) {
	sys := tpchSystem(t)
	release := make(chan struct{})
	defer close(release)
	cl := startCluster(t, sys, 2, clusterConfig{
		wrap: func(i int, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				<-release
			})
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := cl.coord.QueryScoredContext(ctx, []string{"john", "tv"}, 5, "")
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) && !errors.Is(err, shard.ErrNoQuorum) {
			t.Fatalf("cancelled query returned %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("cancelled query still running after 3s")
	}
}

// TestHealthyIndexHealthAllocsFlat: the serving layer asks the
// coordinator's health after every query, so with a warm health cache a
// healthy coordinator's IndexHealthState must not format a detail per
// shard — its allocations do not grow with the shard count.
func TestHealthyIndexHealthAllocsFlat(t *testing.T) {
	sys := tpchSystem(t)
	allocs := map[int]float64{}
	for _, n := range []int{2, 7} {
		cl := startCluster(t, sys, n, clusterConfig{opts: shard.CoordinatorOptions{HealthTTL: time.Hour}})
		if h, err := cl.coord.IndexHealthState(); h != core.IndexOK {
			t.Fatalf("n=%d: healthy cluster health = %v (%v), want ok", n, h, err)
		}
		allocs[n] = testing.AllocsPerRun(50, func() {
			if h, _ := cl.coord.IndexHealthState(); h != core.IndexOK {
				t.Fatalf("n=%d: health left ok", n)
			}
		})
	}
	if allocs[2] != allocs[7] {
		t.Fatalf("IndexHealthState allocates %v at n=2 and %v at n=7, want the same", allocs[2], allocs[7])
	}
}
