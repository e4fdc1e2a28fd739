package webdemo

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
)

// TestServerDeadlineAnswers503: a query that the server's own deadline,
// not its client, ends is answered 503 with Retry-After. Three distinct
// DBLP title words at Z = 8 take longer than the test's 100 ms deadline
// to build cold; the build goes on past it, so a retry is answered once
// the build publishes.
func TestServerDeadlineAnswers503(t *testing.T) {
	ds, err := datagen.DBLP(datagen.DefaultDBLPParams())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.LoadPrepared(&core.Prepared{Schema: ds.Schema, TSS: ds.TSS, Data: ds.Data, Obj: ds.Obj},
		core.Options{Z: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sys)
	srv.deadline = 100 * time.Millisecond
	h := srv.Handler()
	ask := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/query?q=candidate+databases+efficient", nil))
		return rec
	}
	start := time.Now()
	rec := ask()
	if took := time.Since(start); took > time.Second {
		t.Fatalf("cold query under a 100ms server deadline answered after %v", took)
	}
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("cold query past the server deadline: status %d, Retry-After %q, want 503 with one: %s",
			rec.Code, rec.Header().Get("Retry-After"), rec.Body)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for tries := 2; ; tries++ {
		rec = ask()
		if rec.Code == http.StatusOK {
			break
		}
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("try %d: status %d, want 503 until the build publishes: %s", tries, rec.Code, rec.Body)
		}
		if time.Now().After(deadline) {
			t.Fatalf("still 503 after %d tries: the abandoned build never published", tries)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
