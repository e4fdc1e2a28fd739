package webdemo_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"repro/internal/qserve"
	"repro/internal/webdemo"
)

// permutations returns every ordering of kws.
func permutations(kws []string) [][]string {
	if len(kws) <= 1 {
		return [][]string{kws}
	}
	var out [][]string
	for i, first := range kws {
		rest := append(append([]string(nil), kws[:i]...), kws[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append([]string{first}, p...))
		}
	}
	return out
}

// TestQueryPermutationsAnswerIdentically: the result cache keys on the
// sorted keyword bag, so every permutation of a query must get the
// byte-identical /api/query body — whether each is answered cold by a
// fresh server or warm from a server that cached whichever permutation
// came first. Result tie order and bindings follow the keyword order the
// engine is given, so this holds only if the serving layer asks the
// engine the bag, not the request.
func TestQueryPermutationsAnswerIdentically(t *testing.T) {
	sys := fig1(t)
	get := func(h http.Handler, kws []string, scorer string) []byte {
		t.Helper()
		path := "/api/query?q=" + url.QueryEscape(strings.Join(kws, " ")) + "&k=10"
		if scorer != "" {
			path += "&scorer=" + scorer
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	queries := [][]string{
		{"us", "vcr"}, {"john", "vcr"}, {"mike", "dvd"}, {"tv", "vcr"},
		{"john", "us", "vcr"}, {"us", "tv", "vcr"},
	}
	for _, scorer := range []string{"", "weighted", "diversified"} {
		for _, q := range queries {
			perms := permutations(q)
			want := get(webdemo.NewServer(sys).Handler(), q, scorer)
			for _, p := range perms[1:] {
				if cold := get(webdemo.NewServer(sys).Handler(), p, scorer); !bytes.Equal(cold, want) {
					t.Fatalf("scorer=%q: cold %v answered\n%s\nbut cold %v answered\n%s", scorer, p, cold, q, want)
				}
			}
			// Warm: the last permutation arrives first and fills the
			// cache; every later one, q included, is a hit.
			warm := webdemo.NewServer(sys).Handler()
			for i := len(perms) - 1; i >= 0; i-- {
				if body := get(warm, perms[i], scorer); !bytes.Equal(body, want) {
					t.Fatalf("scorer=%q: warm %v answered\n%s\nbut cold %v answered\n%s", scorer, perms[i], body, q, want)
				}
			}
		}
	}
}

// TestConcurrentQueriesMatchSequential: goroutines sharing one server —
// its pooled Renderers, its result cache and the system's summary memo,
// cold at the start — get the bodies a fresh server gives one request at
// a time. Run under -race in CI.
func TestConcurrentQueriesMatchSequential(t *testing.T) {
	sys := fig1(t)
	words := []string{"john", "mike", "vcr", "tv", "dvd", "us", "tuner"}
	var paths []string
	for i, a := range words {
		for _, b := range words[i+1:] {
			paths = append(paths, "/api/query?q="+a+"+"+b+"&k=10")
		}
	}
	get := func(h http.Handler, path string) ([]byte, int) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Body.Bytes(), rec.Code
	}
	const workers = 8
	// One admission slot per goroutine, so none is shed.
	shared := webdemo.NewServerWith(sys, qserve.New(sys, qserve.Options{MaxConcurrent: workers})).Handler()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3*len(paths); i++ {
				path := paths[(i+5*w)%len(paths)]
				if _, code := get(shared, path); code != http.StatusOK {
					t.Errorf("%s: status %d", path, code)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	fresh := webdemo.NewServer(fig1(t)).Handler()
	for _, path := range paths {
		got, _ := get(shared, path)
		if want, _ := get(fresh, path); !bytes.Equal(got, want) {
			t.Fatalf("%s: shared server\n%s\nfresh server\n%s", path, got, want)
		}
	}
}
