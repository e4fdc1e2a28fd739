package webdemo

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/kwindex"
	"repro/internal/pipeline"
)

// resultJSON is the struct /api/query bodies were reflected from before
// the append-style encoder, kept as the reference it must match.
type resultJSON struct {
	Score    int      `json:"score"`
	Rendered string   `json:"rendered"`
	Objects  []string `json:"objects"`
}

// referenceBody is the /api/query body as json.NewEncoder wrote it.
func referenceBody(t *testing.T, sys *core.System, results []exec.Result, scorer string, rx *pipeline.Relaxation) []byte {
	t.Helper()
	out := make([]resultJSON, 0, len(results))
	for _, res := range results {
		out = append(out, resultJSON{Score: res.Score, Rendered: sys.RenderResult(res), Objects: sys.ResultSummaries(res)})
	}
	body := map[string]interface{}{"results": out}
	if scorer != "" {
		body["scorer"] = scorer
	}
	if rx != nil {
		body["relaxed"] = rx
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// encoderSystems loads the Figure 1 system and the DBLP quick workload's
// system, both with relaxation on, and the queries to ask each: every
// pair of the Figure 1 words, the workload's author pairs and title word
// + author queries, and relaxed ones (a dropped keyword, a phrase
// substituted by its matching token).
func encoderSystems(t *testing.T) map[*core.System][]string {
	t.Helper()
	ds, err := datagen.TPCHFigure1()
	if err != nil {
		t.Fatal(err)
	}
	fig1, err := core.LoadPrepared(ds,
		core.Options{Z: 8, Relax: true})
	if err != nil {
		t.Fatal(err)
	}
	words := []string{"john", "mike", "vcr", "tv", "dvd", "us", "tuner"}
	fq := []string{"john zzznope", "john,zzznope vcr", "zzznope"}
	for i, a := range words {
		for _, b := range words[i+1:] {
			fq = append(fq, a+" "+b)
		}
	}
	w, err := experiments.NewWorkload(experiments.QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	dblp, err := core.LoadPrepared(w.DS, core.Options{Z: w.Config.Z, B: w.Config.B, Relax: true})
	if err != nil {
		t.Fatal(err)
	}
	last := func(name string) string {
		toks := kwindex.Tokenize(name)
		return toks[len(toks)-1]
	}
	dq := []string{"xml zzznope", "keyword,zzznope search"}
	for _, p := range w.Pairs {
		dq = append(dq, last(p[0])+" "+last(p[1]), "xml "+last(p[0]), "ranking "+last(p[1]))
	}
	return map[*core.System][]string{fig1: fq, dblp: dq}
}

// TestQueryBodyMatchesEncodingJSON: for every query under the default
// and the weighted scorer, the /api/query body equals what
// json.NewEncoder wrote over the old structs, relaxation record
// included.
func TestQueryBodyMatchesEncodingJSON(t *testing.T) {
	ctx := context.Background()
	relaxed, bodies := 0, 0
	for sys, queries := range encoderSystems(t) {
		s := NewServer(sys)
		h := s.Handler()
		for _, q := range queries {
			for _, scorer := range []string{"", "weighted"} {
				for _, k := range []int{3, 10} {
					path := "/api/query?q=" + url.QueryEscape(q) + "&k=" + strconv.Itoa(k)
					if scorer != "" {
						path += "&scorer=" + scorer
					}
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
					if rec.Code != http.StatusOK {
						t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
					}
					// The serving layer asks the engine the normalized,
					// sorted keyword bag, so the reference does too.
					var bag []string
					for _, kw := range strings.Fields(q) {
						bag = append(bag, strings.Join(kwindex.Tokenize(kw), " "))
					}
					slices.Sort(bag)
					results, rx, err := sys.QueryScoredContext(ctx, bag, k, scorer)
					if err != nil {
						t.Fatal(err)
					}
					if rx != nil {
						relaxed++
					}
					if want := referenceBody(t, sys, results, scorer, rx); !bytes.Equal(rec.Body.Bytes(), want) {
						t.Fatalf("%s: body\n%s\nwant\n%s", path, rec.Body, want)
					}
					if got := rec.Header().Get("Content-Type"); got != "application/json" {
						t.Fatalf("%s: Content-Type %q", path, got)
					}
					bodies++
				}
			}
		}
	}
	if relaxed == 0 || bodies < 100 {
		t.Fatalf("compared %d bodies, %d relaxed", bodies, relaxed)
	}
}

// fuzzSummaries stands in for a live index that supplies summaries:
// every even TO presents as the fuzzed text, every odd one falls through
// to the object graph's memo.
type fuzzSummaries struct {
	kwindex.Source
	sum string
}

func (f *fuzzSummaries) Summary(to int64) (string, bool) { return f.sum, to%2 == 0 }

// FuzzAppendJSONString: the /api/query body holds each JSON string —
// renderings spliced from pre-escaped pieces, pre-escaped object
// summaries, summaries escaped per response, the scorer name — exactly
// as encoding/json writes it, whatever bytes a summary or the scorer
// holds: invalid UTF-8, U+2028/U+2029, <>&, control bytes, trailing
// newlines.
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range []string{
		"", "plain", "«john,vcr»\n  └─ part[key=1005 name=TV]",
		`<a href="x">&amp;</a>`, "back\\slash \"quote\"",
		"\x00\x01\x08\x0c\x1f\x7f", "tab\tnl\nret\r",
		"\xff\xfe", "\xe2\x80", "truncated \xe2\x80\xa8x",
		"\xe2\x80\xa8\xe2\x80\xa9", "line\xe2\x80\xa8sep", "\xef\xbf\xbd", "\U0001F600\n\n",
	} {
		f.Add(s)
	}
	ds, err := datagen.TPCHFigure1()
	if err != nil {
		f.Fatal(err)
	}
	sys, err := core.LoadPrepared(ds,
		core.Options{Z: 8})
	if err != nil {
		f.Fatal(err)
	}
	var results []exec.Result
	for _, q := range [][]string{{"john", "vcr"}, {"tv", "us"}, {"mike"}} {
		rs, _, err := sys.QueryScoredContext(context.Background(), q, 10, "")
		if err != nil {
			f.Fatal(err)
		}
		results = append(results, rs...)
	}
	if len(results) < 10 {
		f.Fatalf("only %d results", len(results))
	}
	src := &fuzzSummaries{Source: sys.Index}
	sys.Index = src
	s := NewServer(sys)
	f.Fuzz(func(t *testing.T, sum string) {
		src.sum = sum
		buf := s.getQueryBuf()
		defer s.putQueryBuf(buf)
		if err := s.appendQueryBody(buf, results, sum, nil); err != nil {
			t.Fatal(err)
		}
		if want := referenceBody(t, sys, results, sum, nil); !bytes.Equal(buf.body, want) {
			t.Fatalf("summary %q: body\n%s\nwant\n%s", sum, buf.body, want)
		}
	})
}
