package webdemo_test

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/kwindex"
	"repro/internal/qserve"
	"repro/internal/segidx"
	"repro/internal/webdemo"
)

// failingSource serves its wrapped index until failed is set; from then
// on every lookup comes back empty and Err reports the failure — the
// shape of a disk reader whose file went bad.
type failingSource struct {
	kwindex.Source
	failed atomic.Bool
}

func (f *failingSource) ContainingList(k string) []kwindex.Posting {
	if f.failed.Load() {
		return nil
	}
	return f.Source.ContainingList(k)
}

func (f *failingSource) SchemaNodes(k string) []string {
	if f.failed.Load() {
		return nil
	}
	return f.Source.SchemaNodes(k)
}

func (f *failingSource) TOSet(k, schemaNode string) map[int64]bool {
	if f.failed.Load() {
		return nil
	}
	return f.Source.TOSet(k, schemaNode)
}

func (f *failingSource) Err() error {
	if f.failed.Load() {
		return errors.New("injected primary read failure")
	}
	return nil
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestSegidxOverHealedFailover layers a segmented store over a Failover
// whose primary fails before the first query. The Failover heals onto
// its rebuilt index, so the store answers exactly as the fault-free
// system does, and the health verdict must say degraded — not
// unavailable — through the store.
func TestSegidxOverHealedFailover(t *testing.T) {
	ref := httptest.NewServer(webdemo.NewServer(fig1(t)).Handler())
	defer ref.Close()

	sys := fig1(t)
	primary := &failingSource{Source: sys.Index}
	rebuilt := kwindex.Build(sys.Obj)
	fo := kwindex.NewFailover(primary, func() (kwindex.Source, error) { return rebuilt, nil }, nil)
	store, err := segidx.Open(t.TempDir(), segidx.Options{Base: fo, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	sys.Index = store
	qs := qserve.New(sys, qserve.Options{MaxEntries: -1, Logf: func(string, ...any) {}})
	srv := httptest.NewServer(webdemo.NewServerWith(sys, qs).Handler())
	defer srv.Close()

	primary.failed.Store(true)
	const q = "/api/query?q=john+vcr"
	code, body := get(t, srv.URL+q)
	if code != http.StatusOK {
		t.Fatalf("query over a healed failover: status %d, want 200: %s", code, body)
	}
	_, want := get(t, ref.URL+q)
	if body != want {
		t.Fatalf("query over a healed failover answered\n%s\nwant\n%s", body, want)
	}
	code, body = get(t, srv.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz status %d, want 200: %s", code, body)
	}
	var hz struct{ Status string }
	if err := json.Unmarshal([]byte(body), &hz); err != nil || hz.Status != string(qserve.HealthDegraded) {
		t.Fatalf("healthz body %s, want status degraded", body)
	}
}
