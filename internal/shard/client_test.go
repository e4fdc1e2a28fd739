package shard

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
)

// newTestClient wires a shardClient to a httptest server with a tight
// breaker, the shape the coordinator builds per replica.
func newTestClient(ts *httptest.Server, threshold int, window time.Duration) *shardClient {
	return &shardClient{
		id:        0,
		base:      ts.URL,
		hc:        ts.Client(),
		timeout:   2 * time.Second,
		threshold: threshold,
		window:    window,
	}
}

// TestBreakerHalfOpenAdmitsOneProbe drives the breaker through fail →
// open → half-open under CONCURRENT callers: while the single half-open
// probe is in flight, every other concurrent call must fast-fail
// without touching the server — the probing flag exists so a recovering
// replica is not trampled by a thundering herd the moment its window
// expires.
func TestBreakerHalfOpenAdmitsOneProbe(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	var hits atomic.Int64
	probeGate := make(chan struct{}) // holds the probe open while siblings race
	var gateOnce sync.Once
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if failing.Load() {
			http.Error(w, "injected outage", http.StatusInternalServerError)
			return
		}
		gateOnce.Do(func() { <-probeGate }) // first healthy request = the probe
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte("{}"))
	}))
	defer ts.Close()

	cl := newTestClient(ts, 2, 50*time.Millisecond)
	ctx := context.Background()
	retry := fault.RetryPolicy{Attempts: 1}
	var out struct{}

	// Two failures open the breaker.
	for i := 0; i < 2; i++ {
		if err := cl.call(ctx, "/x", struct{}{}, &out, retry); err == nil {
			t.Fatal("failing server answered")
		}
	}
	if !cl.broken() {
		t.Fatal("breaker still closed after reaching the threshold")
	}
	if lbl := cl.breakerLabel(); lbl != "open" {
		t.Fatalf("breaker label %q, want open", lbl)
	}
	before := hits.Load()
	if err := cl.call(ctx, "/x", struct{}{}, &out, retry); err == nil {
		t.Fatal("open breaker admitted a call")
	}
	if hits.Load() != before {
		t.Fatal("fast-fail reached the server — the breaker exists to avoid that")
	}

	// Heal the server and wait out the window: the breaker half-opens.
	failing.Store(false)
	time.Sleep(60 * time.Millisecond)
	if lbl := cl.breakerLabel(); lbl != "half-open" {
		t.Fatalf("breaker label %q after the window, want half-open", lbl)
	}

	// Race 16 concurrent callers at the half-open breaker. The first is
	// admitted as the probe and parks on the gate; the rest must
	// fast-fail without a request. Poll until the probe is holding the
	// gate (it counts one hit), then launch the herd.
	const herd = 16
	probeDone := make(chan error, 1)
	go func() {
		var o struct{}
		probeDone <- cl.call(ctx, "/x", struct{}{}, &o, retry)
	}()
	deadline := time.Now().Add(2 * time.Second)
	for hits.Load() != before+1 {
		if time.Now().After(deadline) {
			t.Fatal("half-open probe never reached the server")
		}
		time.Sleep(time.Millisecond)
	}
	var wg sync.WaitGroup
	var fastFails atomic.Int64
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var o struct{}
			if err := cl.call(ctx, "/x", struct{}{}, &o, retry); err != nil {
				fastFails.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := hits.Load(); got != before+1 {
		t.Fatalf("herd drove %d extra requests past the half-open probe, want 0", got-(before+1))
	}
	if got := fastFails.Load(); got != herd {
		t.Fatalf("%d of %d herd calls fast-failed, want all", got, herd)
	}

	// Release the probe: its success closes the breaker and the herd's
	// next wave flows normally.
	close(probeGate)
	if err := <-probeDone; err != nil {
		t.Fatalf("half-open probe failed against a healthy server: %v", err)
	}
	if cl.broken() {
		t.Fatal("breaker still broken after a successful probe")
	}
	if lbl := cl.breakerLabel(); lbl != "closed" {
		t.Fatalf("breaker label %q after recovery, want closed", lbl)
	}
	var wg2 sync.WaitGroup
	var errs atomic.Int64
	for i := 0; i < herd; i++ {
		wg2.Add(1)
		go func() {
			defer wg2.Done()
			var o struct{}
			if err := cl.call(ctx, "/x", struct{}{}, &o, retry); err != nil {
				errs.Add(1)
			}
		}()
	}
	wg2.Wait()
	if errs.Load() != 0 {
		t.Fatalf("%d calls failed after the breaker closed", errs.Load())
	}
	if cl.lastError() != "" {
		t.Fatalf("lastError %q after recovery, want empty", cl.lastError())
	}
}

// TestBreakerFailedProbeReopens checks the other half of half-open:
// a failed probe must re-open the window, and while the re-opened
// breaker fast-fails no probe slot is leaked (probing resets).
func TestBreakerFailedProbeReopens(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "still down", http.StatusInternalServerError)
	}))
	defer ts.Close()
	cl := newTestClient(ts, 1, 30*time.Millisecond)
	ctx := context.Background()
	retry := fault.RetryPolicy{Attempts: 1}
	var out struct{}

	if err := cl.call(ctx, "/x", struct{}{}, &out, retry); err == nil {
		t.Fatal("failing server answered")
	}
	for round := 0; round < 3; round++ {
		time.Sleep(40 * time.Millisecond)
		if lbl := cl.breakerLabel(); lbl != "half-open" {
			t.Fatalf("round %d: label %q, want half-open", round, lbl)
		}
		if err := cl.call(ctx, "/x", struct{}{}, &out, retry); err == nil {
			t.Fatal("failed probe reported success")
		}
		if !cl.broken() {
			t.Fatalf("round %d: failed probe did not re-open the breaker", round)
		}
	}
}

// TestBreakerCancelledProbeReleasesSlot covers the half-open probe
// whose call ends in cancellation rather than success or failure — a
// hedge loser cancelled by the winner, or a caller that gave up. The
// cancellation path charges neither noteSuccess nor noteFailure, so it
// must release the single probe slot explicitly; if it leaks, probing
// stays true forever and allow() fast-fails the replica permanently
// even after it recovers.
func TestBreakerCancelledProbeReleasesSlot(t *testing.T) {
	var mode atomic.Value
	mode.Store("fail")
	var hits atomic.Int64
	hung := make(chan struct{}) // released at test end; the client abandons the probe long before
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		switch mode.Load() {
		case "fail":
			http.Error(w, "injected outage", http.StatusInternalServerError)
		case "hang":
			<-hung // hung replica: never answers while the probe is in flight
		default:
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write([]byte("{}"))
		}
	}))
	defer ts.Close()
	defer close(hung) // LIFO: free the hung handler before Close waits on it

	cl := newTestClient(ts, 1, 30*time.Millisecond)
	retry := fault.RetryPolicy{Attempts: 1}
	var out struct{}

	// One failure opens the breaker; the window elapsing half-opens it.
	if err := cl.call(context.Background(), "/x", struct{}{}, &out, retry); err == nil {
		t.Fatal("failing server answered")
	}
	time.Sleep(40 * time.Millisecond)
	if lbl := cl.breakerLabel(); lbl != "half-open" {
		t.Fatalf("label %q after the window, want half-open", lbl)
	}

	// Admit the probe against a now-hung replica, wait until it is in
	// flight, then cancel it — exactly what a hedge winner does to the
	// loser it raced.
	mode.Store("hang")
	before := hits.Load()
	pctx, cancel := context.WithCancel(context.Background())
	probeDone := make(chan error, 1)
	go func() {
		var o struct{}
		probeDone <- cl.call(pctx, "/x", struct{}{}, &o, retry)
	}()
	deadline := time.Now().Add(2 * time.Second)
	for hits.Load() != before+1 {
		if time.Now().After(deadline) {
			t.Fatal("half-open probe never reached the server")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-probeDone; err == nil {
		t.Fatal("cancelled probe reported success")
	}

	// The slot must be free again: with the replica healed, the very
	// next call is admitted as a fresh probe and closes the breaker.
	mode.Store("ok")
	if err := cl.call(context.Background(), "/x", struct{}{}, &out, retry); err != nil {
		t.Fatalf("probe slot leaked: call after cancelled probe failed: %v", err)
	}
	if cl.broken() {
		t.Fatal("breaker still broken after the recovered probe succeeded")
	}
	if lbl := cl.breakerLabel(); lbl != "closed" {
		t.Fatalf("label %q after recovery, want closed", lbl)
	}
}

// TestLatencyObservedOnlyOnSuccess pins down what feeds the latency
// histogram, because it now drives routing (order's proven/p50 rank)
// and the p95-derived hedge delay: failed attempts (~0ms connection
// refusals would rank a flapping replica fastest) and /shard/stats
// health probes (cheap samples would mark a cold replica "proven" and
// drag p95 toward the hedge clamp floor) must not be observed.
func TestLatencyObservedOnlyOnSuccess(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() {
			http.Error(w, "injected outage", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte("{}"))
	}))
	defer ts.Close()

	cl := newTestClient(ts, 10, time.Second)
	ctx := context.Background()
	retry := fault.RetryPolicy{Attempts: 1}
	var out struct{}

	if err := cl.call(ctx, "/x", struct{}{}, &out, retry); err == nil {
		t.Fatal("failing server answered")
	}
	if n := cl.lat.Count(); n != 0 {
		t.Fatalf("failed call fed the routing histogram: %d samples, want 0", n)
	}
	failing.Store(false)
	if err := cl.probe(ctx, "/shard/stats", struct{}{}, &out, retry); err != nil {
		t.Fatalf("stats probe failed: %v", err)
	}
	if n := cl.lat.Count(); n != 0 {
		t.Fatalf("stats probe fed the routing histogram: %d samples, want 0", n)
	}
	if err := cl.call(ctx, "/x", struct{}{}, &out, retry); err != nil {
		t.Fatalf("healthy call failed: %v", err)
	}
	if n := cl.lat.Count(); n != 1 {
		t.Fatalf("successful call observed %d samples, want 1", n)
	}
}

// TestHedgeBudgetAllow exercises the budget arithmetic directly: the
// grace admits early hedges, then fired hedges track the percentage.
func TestHedgeBudgetAllow(t *testing.T) {
	hc := &hedgeControl{budgetPct: 10, maxDelay: time.Second, minSamples: 1}
	if !hc.allow() {
		t.Fatal("fresh budget must admit the grace hedge")
	}
	hc.fired.Add(1)
	if hc.allow() {
		t.Fatal("grace spent with zero requests: budget must refuse")
	}
	hc.reqs.Add(100) // 100 requests at 10% → 10 hedges + grace
	for i := 0; i < 10; i++ {
		if !hc.allow() {
			t.Fatalf("hedge %d refused inside the budget", i)
		}
		hc.fired.Add(1)
	}
	if hc.allow() {
		t.Fatalf("budget exceeded: %d fired for %d requests", hc.fired.Load(), hc.reqs.Load())
	}
	var disabled *hedgeControl
	if disabled.allow() {
		t.Fatal("nil hedgeControl must never hedge")
	}
	if (&hedgeControl{disabled: true}).allow() {
		t.Fatal("disabled hedgeControl must never hedge")
	}
}
