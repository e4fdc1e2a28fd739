package webdemo_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/webdemo"
)

func demoServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(webdemo.NewServer(demoSystem(t)).Handler())
	t.Cleanup(srv.Close)
	return srv
}

// demoSystem loads TPC-H Figure 1.
func demoSystem(t *testing.T) *core.System {
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

func getJSON(t *testing.T, url string, out interface{}) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("%s: %v", url, err)
	}
	return resp.StatusCode
}

func TestQueryEndpoint(t *testing.T) {
	srv := demoServer(t)
	var out struct {
		Results []struct {
			Score    int      `json:"score"`
			Rendered string   `json:"rendered"`
			Objects  []string `json:"objects"`
		} `json:"results"`
	}
	code := getJSON(t, srv.URL+"/api/query?q=john+vcr&k=3", &out)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(out.Results) == 0 {
		t.Fatal("no results")
	}
	if out.Results[0].Score != 6 {
		t.Fatalf("best score = %d", out.Results[0].Score)
	}
	if !strings.Contains(out.Results[0].Rendered, "John") {
		t.Fatalf("rendered = %q", out.Results[0].Rendered)
	}
}

// TestQServeStatsEndpoint: repeated queries are served by the cache and
// /debug/qserve reports live counters.
func TestQServeStatsEndpoint(t *testing.T) {
	srv := demoServer(t)
	var out struct {
		Results []struct {
			Score int `json:"score"`
		} `json:"results"`
	}
	// Same query twice (second is a hit), once with permuted case/order
	// (also a hit thanks to key normalization).
	for _, q := range []string{"john+vcr", "john+vcr", "VCR+John"} {
		if code := getJSON(t, srv.URL+"/api/query?q="+q+"&k=3", &out); code != http.StatusOK {
			t.Fatalf("query %q status %d", q, code)
		}
		if len(out.Results) == 0 {
			t.Fatalf("query %q: no results", q)
		}
	}
	var st struct {
		Hits         int64 `json:"hits"`
		Misses       int64 `json:"misses"`
		Sheds        int64 `json:"sheds"`
		Served       int64 `json:"served"`
		CacheEntries int   `json:"cache_entries"`
	}
	if code := getJSON(t, srv.URL+"/debug/qserve", &st); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("stats hits=%d misses=%d, want 2/1", st.Hits, st.Misses)
	}
	if st.Served != 3 || st.CacheEntries != 1 || st.Sheds != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestNetworksEndpoint(t *testing.T) {
	srv := demoServer(t)
	var out struct {
		Networks []struct {
			Size  int    `json:"size"`
			Shape string `json:"shape"`
		} `json:"networks"`
	}
	if code := getJSON(t, srv.URL+"/api/networks?q=tv+vcr", &out); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(out.Networks) == 0 {
		t.Fatal("no networks")
	}
}

func TestPresentationGraphFlow(t *testing.T) {
	srv := demoServer(t)
	var open struct {
		Session string `json:"session"`
		Graphs  int    `json:"graphs"`
	}
	if code := getJSON(t, srv.URL+"/api/pg/open?q=us+vcr", &open); code != http.StatusOK {
		t.Fatalf("open status %d", code)
	}
	if open.Graphs == 0 {
		t.Fatal("no presentation graphs")
	}
	type state struct {
		Occurrences []struct {
			Index    int  `json:"index"`
			Expanded bool `json:"expanded"`
			Nodes    []struct {
				TO      int64  `json:"to"`
				Summary string `json:"summary"`
			} `json:"nodes"`
			Segment string `json:"segment"`
		} `json:"occurrences"`
		Added *int `json:"added"`
	}
	// Find the graph of the Figure 3 network (4 occurrences with 2 parts)
	// and expand its lineitem occurrence.
	for gi := 0; gi < open.Graphs; gi++ {
		var st state
		url := fmt.Sprintf("%s/api/pg/show?session=%s&graph=%d", srv.URL, open.Session, gi)
		if code := getJSON(t, url, &st); code != http.StatusOK {
			t.Fatalf("show status %d", code)
		}
		liOcc := -1
		parts := 0
		for _, o := range st.Occurrences {
			if o.Segment == "lineitem" {
				liOcc = o.Index
			}
			if o.Segment == "part" {
				parts++
			}
		}
		if liOcc < 0 || parts != 2 || len(st.Occurrences) != 4 {
			continue
		}
		var expanded state
		url = fmt.Sprintf("%s/api/pg/expand?session=%s&graph=%d&occ=%d", srv.URL, open.Session, gi, liOcc)
		if code := getJSON(t, url, &expanded); code != http.StatusOK {
			t.Fatalf("expand status %d", code)
		}
		if expanded.Added == nil || *expanded.Added != 1 {
			t.Fatalf("expand added = %v, want 1", expanded.Added)
		}
		// Contract back to the first lineitem.
		keep := expanded.Occurrences[liOcc].Nodes[0].TO
		var contracted state
		url = fmt.Sprintf("%s/api/pg/contract?session=%s&graph=%d&occ=%d&keep=%d", srv.URL, open.Session, gi, liOcc, keep)
		if code := getJSON(t, url, &contracted); code != http.StatusOK {
			t.Fatalf("contract status %d", code)
		}
		if got := len(contracted.Occurrences[liOcc].Nodes); got != 1 {
			t.Fatalf("after contraction: %d lineitems", got)
		}
		return
	}
	t.Fatal("figure-3 graph not found in session")
}

func TestErrorHandling(t *testing.T) {
	srv := demoServer(t)
	var errOut struct {
		Error string `json:"error"`
	}
	cases := []string{
		"/api/query",              // missing q
		"/api/query?q=john&k=-1",  // bad k
		"/api/pg/show?session=zz", // unknown session
		"/api/pg/expand?session=zz&occ=0",
	}
	for _, path := range cases {
		code := getJSON(t, srv.URL+path, &errOut)
		if code == http.StatusOK || errOut.Error == "" {
			t.Errorf("%s: status %d error %q", path, code, errOut.Error)
		}
	}
	// Index page serves HTML; other paths 404.
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(resp.Header.Get("Content-Type"), "text/html") {
		t.Fatalf("index: %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	resp, err = http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path: %d", resp.StatusCode)
	}
}

// TestTooManyKeywords: a query past the keyword limit is refused as a
// bad request before any index read, even when its keyword matches
// nothing (an empty 200 would hide the refusal).
func TestTooManyKeywords(t *testing.T) {
	srv := demoServer(t)
	var out struct {
		Error string `json:"error"`
	}
	q := strings.TrimSuffix(strings.Repeat("zzznomatch+", 17), "+")
	if code := getJSON(t, srv.URL+"/api/query?q="+q, &out); code != http.StatusBadRequest || !strings.Contains(out.Error, "17 keywords") {
		t.Fatalf("17 keywords: status %d error %q, want 400 naming the count", code, out.Error)
	}
}

// TestNetworksHonourDeadline: /api/networks, /api/pg/open and
// /api/explain run the query stage under the request's context. Five
// distinct DBLP title words at Z = 8 take seconds to build cold; a
// request with a 100 ms deadline must be answered well within a second,
// and with 408: the client gave up, the request was not malformed.
func TestNetworksHonourDeadline(t *testing.T) {
	ds, err := datagen.DBLP(datagen.DefaultDBLPParams())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.LoadPrepared(ds,
		core.Options{Z: 8})
	if err != nil {
		t.Fatal(err)
	}
	h := webdemo.NewServer(sys).Handler()
	for _, path := range []string{"/api/networks", "/api/pg/open", "/api/explain"} {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		req := httptest.NewRequest(http.MethodGet, path+"?q=candidate+databases+efficient+graphs+indexing", nil).WithContext(ctx)
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, req)
		took := time.Since(start)
		cancel()
		if took > time.Second {
			t.Fatalf("%s with a 100ms deadline answered after %v", path, took)
		}
		if rec.Code != http.StatusRequestTimeout {
			t.Fatalf("%s past its deadline: status %d, want 408: %s", path, rec.Code, rec.Body)
		}
	}
}

func TestObjectEndpoint(t *testing.T) {
	sys := demoSystem(t)
	srv := httptest.NewServer(webdemo.NewServer(sys).Handler())
	t.Cleanup(srv.Close)
	// Every target object's body is its serialized XML fragment.
	for _, id := range sys.Obj.Objects() {
		want, err := sys.Obj.BlobXML(id)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get(fmt.Sprintf("%s/api/object?id=%d", srv.URL, id))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("object %d: status %d", id, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "xml") {
			t.Fatalf("object %d: content type %q", id, ct)
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("object %d: body %q, want %q", id, body, want)
		}
	}
	resp, err := http.Get(srv.URL + "/api/object?id=999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing object: %d", resp.StatusCode)
	}
}

func TestDOTEndpoint(t *testing.T) {
	srv := demoServer(t)
	var open struct {
		Session string `json:"session"`
		Graphs  int    `json:"graphs"`
	}
	if code := getJSON(t, srv.URL+"/api/pg/open?q=us+vcr", &open); code != http.StatusOK {
		t.Fatalf("open status %d", code)
	}
	resp, err := http.Get(srv.URL + "/api/pg/dot?session=" + open.Session)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dot status %d", resp.StatusCode)
	}
	buf := make([]byte, 64)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "digraph") {
		t.Fatalf("dot body = %q", buf[:n])
	}
}

// TestPresentationGraphConcurrent drives one pg session from several
// goroutines at once: expand, contract, show and DOT against the same
// graphs. The graphs of a session share one presentation session and
// its lookup cache, so the server must serialize requests per session;
// under -race an unserialized Expand racing a render fails here. Every
// request must answer 200 (a valid move) or 400 (a rejected one).
func TestPresentationGraphConcurrent(t *testing.T) {
	srv := demoServer(t)
	var open struct {
		Session string `json:"session"`
		Graphs  int    `json:"graphs"`
	}
	if code := getJSON(t, srv.URL+"/api/pg/open?q=us+vcr", &open); code != http.StatusOK {
		t.Fatalf("open status %d", code)
	}
	if open.Graphs == 0 {
		t.Fatal("no presentation graphs")
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// At each step the four goroutines send the four kinds of
			// request to the same graph.
			for i := 0; i < 32; i++ {
				gi := i % open.Graphs
				var path string
				switch (w + i) % 4 {
				case 0:
					path = fmt.Sprintf("expand?session=%s&graph=%d&occ=%d", open.Session, gi, i%3)
				case 1:
					path = fmt.Sprintf("contract?session=%s&graph=%d&occ=%d&keep=0", open.Session, gi, i%3)
				case 2:
					path = fmt.Sprintf("dot?session=%s&graph=%d", open.Session, gi)
				default:
					path = fmt.Sprintf("show?session=%s&graph=%d", open.Session, gi)
				}
				resp, err := http.Get(srv.URL + "/api/pg/" + path)
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusBadRequest {
					t.Errorf("%s: status %d", path, resp.StatusCode)
				}
			}
		}(w)
	}
	wg.Wait()
}
