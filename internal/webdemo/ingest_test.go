package webdemo_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/qserve"
	"repro/internal/segidx"
	"repro/internal/webdemo"
)

// ingestServer builds the Figure 1 demo system with a live segmented
// index layered over the batch-built master index, exactly as
// xkserve -segdir wires it.
func ingestServer(t *testing.T) (*httptest.Server, *core.System) {
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
	st, err := segidx.Open(t.TempDir(), segidx.Options{Base: sys.Index, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	sys.Index = st
	wd := webdemo.NewServerWith(sys, qserve.New(sys, qserve.Options{}))
	wd.EnableIngest(st)
	srv := httptest.NewServer(wd.Handler())
	t.Cleanup(srv.Close)
	return srv, sys
}

func postJSON(t *testing.T, url string, body interface{}, out interface{}) int {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestIngestEndpoint: a batch POSTed to /api/ingest becomes visible to
// /api/query immediately — including through the result cache, which
// must be invalidated by the write.
func TestIngestEndpoint(t *testing.T) {
	srv, sys := ingestServer(t)

	var out struct {
		Results []struct {
			Score int `json:"score"`
		} `json:"results"`
	}
	// Prime the cache with the miss: no object mentions the new word yet.
	if code := getJSON(t, srv.URL+"/api/query?q=zebrafish&k=5", &out); code != http.StatusOK {
		t.Fatalf("pre-ingest query status %d", code)
	}
	if len(out.Results) != 0 {
		t.Fatalf("pre-ingest results = %d, want 0", len(out.Results))
	}

	// Update an existing target object so its text now contains the new
	// word. Reusing a live TO keeps presentation (summaries, fragments)
	// on the known-object path.
	docs := segidx.DocumentsFromObjectGraph(sys.Obj)
	if len(docs) == 0 {
		t.Fatal("no documents in object graph")
	}
	doc := docs[0]
	doc.Fields[len(doc.Fields)-1].Value += " zebrafish"
	var ack struct {
		Added   int  `json:"added"`
		Deleted int  `json:"deleted"`
		Flushed bool `json:"flushed"`
	}
	code := postJSON(t, srv.URL+"/api/ingest", map[string]interface{}{
		"add": []segidx.Document{doc},
	}, &ack)
	if code != http.StatusOK {
		t.Fatalf("ingest status %d", code)
	}
	if ack.Added != 1 || ack.Deleted != 0 || ack.Flushed {
		t.Fatalf("ack = %+v", ack)
	}

	// The same query must now find the updated object: the write
	// invalidated the cached empty answer.
	out.Results = nil
	if code := getJSON(t, srv.URL+"/api/query?q=zebrafish&k=5", &out); code != http.StatusOK {
		t.Fatalf("post-ingest query status %d", code)
	}
	if len(out.Results) == 0 {
		t.Fatal("ingested keyword not visible to /api/query")
	}

	// Deleting the object hides it again.
	if code := postJSON(t, srv.URL+"/api/ingest", map[string]interface{}{
		"delete": []int64{doc.TO},
	}, &ack); code != http.StatusOK {
		t.Fatalf("delete status %d", code)
	}
	out.Results = nil
	if code := getJSON(t, srv.URL+"/api/query?q=zebrafish&k=5", &out); code != http.StatusOK {
		t.Fatalf("post-delete query status %d", code)
	}
	if len(out.Results) != 0 {
		t.Fatalf("deleted object still visible: %d results", len(out.Results))
	}
}

// TestIngestEndpointErrors: method, body and batch validation.
func TestIngestEndpointErrors(t *testing.T) {
	srv, _ := ingestServer(t)

	resp, err := http.Get(srv.URL + "/api/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d, want 405", resp.StatusCode)
	}

	if code := postJSON(t, srv.URL+"/api/ingest", map[string]interface{}{}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty batch status %d, want 400", code)
	}

	resp, err = http.Post(srv.URL+"/api/ingest", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body status %d, want 400", resp.StatusCode)
	}
}

// TestIngestDisabled: without EnableIngest the endpoints 404.
func TestIngestDisabled(t *testing.T) {
	srv := demoServer(t)
	for _, path := range []string{"/api/ingest", "/debug/segidx"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestSegidxStatsEndpoint: /debug/segidx reflects the store's state,
// and a flush requested through the API moves documents to a segment.
func TestSegidxStatsEndpoint(t *testing.T) {
	srv, sys := ingestServer(t)
	docs := segidx.DocumentsFromObjectGraph(sys.Obj)
	var ack struct{}
	if code := postJSON(t, srv.URL+"/api/ingest", map[string]interface{}{
		"add":   []segidx.Document{docs[0]},
		"flush": true,
	}, &ack); code != http.StatusOK {
		t.Fatalf("ingest status %d", code)
	}
	var st segidx.Stats
	if code := getJSON(t, srv.URL+"/debug/segidx", &st); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if len(st.Segments) != 1 {
		t.Fatalf("segments = %d, want 1 after flush", len(st.Segments))
	}
	if st.MemDocs != 0 {
		t.Fatalf("memtable docs = %d, want 0 after flush", st.MemDocs)
	}
}

// TestIngestedSummaryShowsOnCacheHit pins that a cached answer never
// freezes a summary. An ingest rewrites one target object of a cached
// answer so that it shares no token with the query, which leaves the
// entry valid; the next request is a cache hit and must present the
// rewritten object's new summary.
func TestIngestedSummaryShowsOnCacheHit(t *testing.T) {
	srv, sys := ingestServer(t)
	const path = "/api/query?q=john+vcr&k=10"
	type body struct {
		Results []struct {
			Rendered string   `json:"rendered"`
			Objects  []string `json:"objects"`
		} `json:"results"`
	}
	var before body
	if code := getJSON(t, srv.URL+path, &before); code != http.StatusOK || len(before.Results) == 0 {
		t.Fatalf("status %d, %d results", code, len(before.Results))
	}

	// An object in the middle of the first result's tree holds neither
	// query keyword.
	rs, err := sys.Query([]string{"john", "vcr"}, 1)
	if err != nil || len(rs) == 0 || len(rs[0].Bind) < 3 {
		t.Fatalf("query: %v, %d results", err, len(rs))
	}
	to := rs[0].Bind[1]
	var rewrite segidx.Document
	for _, d := range segidx.DocumentsFromObjectGraph(sys.Obj) {
		if d.TO == to {
			rewrite = d
		}
	}
	if rewrite.TO != to || len(rewrite.Fields) == 0 {
		t.Fatalf("no document for TO %d", to)
	}
	for i := range rewrite.Fields {
		rewrite.Fields[i].Value = "Rewritten"
	}
	newSummary := rewrite.Summary()
	if strings.Contains(strings.Join(before.Results[0].Objects, "\n"), newSummary) {
		t.Fatalf("test premise broken: %q already presented", newSummary)
	}
	var stats struct {
		Hits int64 `json:"hits"`
	}
	getJSON(t, srv.URL+"/debug/qserve", &stats)
	hits := stats.Hits
	if code := postJSON(t, srv.URL+"/api/ingest", map[string]interface{}{
		"add": []segidx.Document{rewrite},
	}, nil); code != http.StatusOK {
		t.Fatalf("ingest status %d", code)
	}

	var after body
	if code := getJSON(t, srv.URL+path, &after); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	getJSON(t, srv.URL+"/debug/qserve", &stats)
	if stats.Hits != hits+1 {
		t.Fatalf("hits %d -> %d: the ingest invalidated the entry, so the test shows nothing", hits, stats.Hits)
	}
	if len(after.Results) != len(before.Results) {
		t.Fatalf("%d results after the ingest, %d before", len(after.Results), len(before.Results))
	}
	if got := after.Results[0].Objects[1]; got != newSummary {
		t.Fatalf("cache hit presents TO %d as %q, want the ingested %q", to, got, newSummary)
	}
	if !strings.Contains(after.Results[0].Rendered, newSummary) {
		t.Fatalf("cache hit renders\n%s\nwithout the ingested %q", after.Results[0].Rendered, newSummary)
	}
}
