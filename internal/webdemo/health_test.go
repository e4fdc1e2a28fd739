package webdemo_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/pipeline"
	"repro/internal/qserve"
	"repro/internal/webdemo"
)

func fig1(t *testing.T) *core.System {
	t.Helper()
	ds, err := datagen.TPCHFigure1()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.LoadPrepared(ds,
		core.Options{Z: 8})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestHealthzOK(t *testing.T) {
	srv := httptest.NewServer(webdemo.NewServer(fig1(t)).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var body struct{ Status string }
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Status != string(qserve.HealthOK) {
		t.Fatalf("status %q, want ok", body.Status)
	}
}

// blockingEngine blocks every pipeline run until released, holding its
// qserve execution slot occupied.
type blockingEngine struct {
	release chan struct{}
}

func (b *blockingEngine) QueryScoredContext(ctx context.Context, keywords []string, k int, scorer string) ([]exec.Result, *pipeline.Relaxation, error) {
	select {
	case <-b.release:
		return nil, nil, nil
	case <-ctx.Done():
		return nil, nil, ctx.Err()
	}
}

// TestOverloadedQueryCarriesRetryAfter saturates the single execution
// slot and asserts the 503 a shed query receives carries a positive
// whole-seconds Retry-After header.
func TestOverloadedQueryCarriesRetryAfter(t *testing.T) {
	sys := fig1(t)
	eng := &blockingEngine{release: make(chan struct{})}
	qs := qserve.New(eng, qserve.Options{
		MaxEntries:    -1,
		MaxConcurrent: 1,
		QueueWait:     time.Millisecond,
	})
	srv := httptest.NewServer(webdemo.NewServerWith(sys, qs).Handler())
	defer srv.Close()
	defer close(eng.release)

	occupied := make(chan struct{})
	go func() {
		defer close(occupied)
		resp, err := http.Get(srv.URL + "/api/query?q=occupier")
		if err == nil {
			resp.Body.Close()
		}
	}()
	for qs.InFlight() == 0 {
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Get(srv.URL + "/api/query?q=shed+me")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want whole seconds ≥ 1", ra)
	}
}

// TestHealthzUnavailable serves through an engine whose index backend
// has failed with no fallback and asserts /healthz turns 503 with
// Retry-After, and that a query gets a loud 503 instead of a silently
// empty 200.
func TestHealthzUnavailable(t *testing.T) {
	sys := fig1(t)
	eng := &unavailableEngine{}
	qs := qserve.New(eng, qserve.Options{MaxEntries: -1, Logf: func(string, ...any) {}})
	srv := httptest.NewServer(webdemo.NewServerWith(sys, qs).Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("healthz 503 without Retry-After")
	}

	qresp, err := http.Get(srv.URL + "/api/query?q=anything")
	if err != nil {
		t.Fatal(err)
	}
	defer qresp.Body.Close()
	if qresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query against unavailable index returned %d, want 503", qresp.StatusCode)
	}
}

// unavailableEngine answers every query with empty results — the shape
// of a soft-failed index — while reporting itself unavailable.
type unavailableEngine struct{}

func (u *unavailableEngine) QueryScoredContext(ctx context.Context, keywords []string, k int, scorer string) ([]exec.Result, *pipeline.Relaxation, error) {
	return nil, nil, nil
}

func (u *unavailableEngine) IndexHealthState() (core.IndexHealth, error) {
	return core.IndexUnavailable, context.DeadlineExceeded
}
