package repro

// BenchmarkRender prices the presentation layer of /api/query: the
// request goes through webdemo.Handler (query parsing, qserve, result
// rendering and the JSON body) on the DBLP quick workload, over a mix of
// distinct author pairs at k = 10.

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/kwindex"
	"repro/internal/qserve"
	"repro/internal/webdemo"
)

// renderPairs is the size of the request mix: enough distinct queries
// that a "miss" pass never repeats one.
const renderPairs = 200

// renderPaths draws the mix: pairs of the tokens unique to each author
// ("chen10"), the same query template the serving benchmark draws from.
func renderPaths(b *testing.B, sys *core.System) []string {
	b.Helper()
	authors := len(sys.Obj.BySegment("author"))
	rng := newRand(23)
	paths := make([]string, 0, renderPairs)
	for len(paths) < renderPairs {
		i, j := rng.Intn(authors), rng.Intn(authors)
		if i == j {
			continue
		}
		a := kwindex.Tokenize(datagen.AuthorName(i))
		c := kwindex.Tokenize(datagen.AuthorName(j))
		paths = append(paths, "/api/query?q="+a[len(a)-1]+"+"+c[len(c)-1]+"&k=10")
	}
	return paths
}

// serve answers one request and fails the benchmark on a non-200.
func serve(b *testing.B, h http.Handler, path string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		b.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
	}
}

// BenchmarkRender: "hit" serves every request from the result cache, so
// what remains is rendering and encoding; "miss" starts each pass over
// the mix with an empty result cache, so every request also runs the
// pipeline. Both run with a warm shape memo.
func BenchmarkRender(b *testing.B) {
	sys := servedSystem(b)
	paths := renderPaths(b, sys)
	newHandler := func() http.Handler {
		return webdemo.NewServerWith(sys, qserve.New(sys, qserve.Options{})).Handler()
	}
	warm := newHandler()
	for _, p := range paths {
		serve(b, warm, p)
	}
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			serve(b, warm, paths[i%len(paths)])
		}
	})
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		var h http.Handler
		for i := 0; i < b.N; i++ {
			if i%len(paths) == 0 {
				b.StopTimer()
				h = newHandler()
				b.StartTimer()
			}
			serve(b, h, paths[i%len(paths)])
		}
	})
}
