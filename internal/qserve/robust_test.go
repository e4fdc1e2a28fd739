package qserve_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/qserve"
)

// healthEngine is a fakeEngine that also reports index-backend health,
// like *core.System does.
type healthEngine struct {
	fakeEngine
	state core.IndexHealth
	err   error
}

func (h *healthEngine) IndexHealthState() (core.IndexHealth, error) {
	return h.state, h.err
}

// TestCancellationDuringQueueWait asserts a caller that gives up while
// queued for an execution slot gets its own ctx.Err(), not
// ErrOverloaded: the server was not proven overloaded, the client left.
func TestCancellationDuringQueueWait(t *testing.T) {
	eng := &fakeEngine{block: make(chan struct{})}
	qs := qserve.New(eng, qserve.Options{
		MaxEntries:    -1,
		MaxConcurrent: 1,
		QueueWait:     10 * time.Second, // far longer than the test
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, _ = qs.QueryScored(context.Background(), []string{"occupier"}, 10, "")
	}()
	for qs.InFlight() == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := qs.QueryScored(ctx, []string{"queued", "then", "cancelled"}, 10, "")
		errc <- err
	}()
	// Give the query time to enter the queue wait, then hang up.
	for qs.Stats().Waiters == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if errors.Is(err, qserve.ErrOverloaded) {
			t.Fatal("cancellation misreported as overload")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled admission never returned")
	}
	if st := qs.Stats(); st.Cancels != 1 || st.Sheds != 0 {
		t.Fatalf("cancels=%d sheds=%d, want 1/0", st.Cancels, st.Sheds)
	}
	close(eng.block)
	<-done
}

// TestBreakerFastFailsAfterShed asserts that once a shed proves the
// server saturated, the next admission is rejected immediately instead
// of paying the full queue wait, and that a successful admission closes
// the breaker again.
func TestBreakerFastFailsAfterShed(t *testing.T) {
	const wait = 200 * time.Millisecond
	eng := &fakeEngine{block: make(chan struct{})}
	qs := qserve.New(eng, qserve.Options{
		MaxEntries:    -1,
		MaxConcurrent: 1,
		QueueWait:     wait,
		BreakerWindow: 10 * time.Second, // hold open for the whole test
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, _ = qs.QueryScored(context.Background(), []string{"occupier"}, 10, "")
	}()
	for qs.InFlight() == 0 {
		time.Sleep(time.Millisecond)
	}
	if _, _, err := qs.QueryScored(context.Background(), []string{"first"}, 10, ""); !errors.Is(err, qserve.ErrOverloaded) {
		t.Fatalf("first err = %v, want ErrOverloaded", err)
	}
	st := qs.Stats()
	if !st.BreakerOpen || st.BreakerTrips != 1 {
		t.Fatalf("breaker open=%v trips=%d after shed, want open/1", st.BreakerOpen, st.BreakerTrips)
	}
	if st.RetryAfterMillis <= 0 {
		t.Fatalf("retry-after hint %dms, want positive", st.RetryAfterMillis)
	}
	start := time.Now()
	if _, _, err := qs.QueryScored(context.Background(), []string{"second"}, 10, ""); !errors.Is(err, qserve.ErrOverloaded) {
		t.Fatalf("second err = %v, want ErrOverloaded", err)
	}
	if fast := time.Since(start); fast > wait/2 {
		t.Fatalf("breaker did not fast-fail: rejection took %v (queue wait %v)", fast, wait)
	}
	// Free the slot: the next admission must succeed and close the
	// breaker even though its window has not expired.
	close(eng.block)
	<-done
	if _, _, err := qs.QueryScored(context.Background(), []string{"after", "recovery"}, 10, ""); err != nil {
		t.Fatalf("post-recovery query failed: %v", err)
	}
	if st := qs.Stats(); st.BreakerOpen {
		t.Fatal("breaker still open after a successful admission")
	}
}

// TestHealthStates maps each index-backend state to the serving-layer
// health the /healthz endpoint reports.
func TestHealthStates(t *testing.T) {
	for _, tc := range []struct {
		state core.IndexHealth
		err   error
		want  qserve.Health
	}{
		{core.IndexOK, nil, qserve.HealthOK},
		{core.IndexDegraded, errors.New("sidecar checksum mismatch"), qserve.HealthDegraded},
		{core.IndexUnavailable, errors.New("rebuild failed"), qserve.HealthUnavailable},
	} {
		var logged []string
		eng := &healthEngine{state: tc.state, err: tc.err}
		qs := qserve.New(eng, qserve.Options{
			MaxEntries: -1,
			Logf:       func(format string, args ...any) { logged = append(logged, format) },
		})
		got, detail := qs.Health()
		if got != tc.want {
			t.Fatalf("state %s: health = %s, want %s", tc.state, got, tc.want)
		}
		if tc.err != nil && detail == "" {
			t.Fatalf("state %s: no detail for unhealthy state", tc.state)
		}
		st := qs.Stats()
		if st.IndexState != string(tc.state) {
			t.Fatalf("snapshot index_state = %q, want %q", st.IndexState, tc.state)
		}
		if tc.err != nil {
			if st.IndexErr == "" {
				t.Fatalf("state %s: index error not surfaced in stats", tc.state)
			}
			if len(logged) != 1 {
				t.Fatalf("state %s: index failure logged %d times, want once", tc.state, len(logged))
			}
		}
	}
}

// TestHealthEngineStillServes sanity-checks that the optional health
// interface does not interfere with serving.
func TestHealthEngineStillServes(t *testing.T) {
	eng := &healthEngine{state: core.IndexOK}
	eng.results = []exec.Result{}
	qs := qserve.New(eng, qserve.Options{MaxEntries: -1})
	if _, _, err := qs.QueryScored(context.Background(), []string{"a"}, 5, ""); err != nil {
		t.Fatal(err)
	}
}
