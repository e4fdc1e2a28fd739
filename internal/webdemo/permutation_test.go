package webdemo_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

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
