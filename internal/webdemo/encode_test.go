package webdemo

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/kwindex"
	"repro/internal/qserve"
)

// resultJSON is the struct /api/query bodies were reflected from before
// the append-style encoder, kept as the reference it must match.
type resultJSON struct {
	Score    int      `json:"score"`
	Rendered string   `json:"rendered"`
	Objects  []string `json:"objects"`
}

// referenceBody is the /api/query body as json.NewEncoder wrote it.
func referenceBody(t *testing.T, sys *core.System, results []exec.Result, scorer string, ann *qserve.Annotations) []byte {
	t.Helper()
	out := make([]resultJSON, 0, len(results))
	for _, res := range results {
		out = append(out, resultJSON{Score: res.Score, Rendered: sys.RenderResult(res), Objects: sys.ResultSummaries(res)})
	}
	body := map[string]interface{}{"results": out}
	if scorer != "" {
		body["scorer"] = scorer
	}
	if ann != nil && ann.Degraded != nil {
		body["degraded"] = ann.Degraded
	}
	if ann != nil && ann.Relaxed != nil {
		body["relaxed"] = ann.Relaxed
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
	fig1, err := core.LoadPrepared(&core.Prepared{Schema: ds.Schema, TSS: ds.TSS, Data: ds.Data, Obj: ds.Obj},
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
	dblp, err := core.LoadPrepared(w.Prepared, core.Options{Z: w.Config.Z, B: w.Config.B, SkipBlobs: true, Relax: true})
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
// included; and so does the encoder's output with a degradation note.
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
					results, rx, err := sys.QueryScoredContext(ctx, strings.Fields(q), k, scorer)
					if err != nil {
						t.Fatal(err)
					}
					var ann *qserve.Annotations
					if rx != nil {
						relaxed++
						ann = &qserve.Annotations{Relaxed: rx}
					}
					if want := referenceBody(t, sys, results, scorer, ann); !bytes.Equal(rec.Body.Bytes(), want) {
						t.Fatalf("%s: body\n%s\nwant\n%s", path, rec.Body, want)
					}
					if got := rec.Header().Get("Content-Type"); got != "application/json" {
						t.Fatalf("%s: Content-Type %q", path, got)
					}

					ann = &qserve.Annotations{
						Degraded: &qserve.Degradation{Shards: []string{"shard 1 of 2 at http://a<b>&c"}, Detail: "partition 1 missing", Count: 2},
						Relaxed:  rx,
					}
					buf := getQueryBuf()
					if err := s.appendQueryBody(buf, results, scorer, ann); err != nil {
						t.Fatal(err)
					}
					if want := referenceBody(t, sys, results, scorer, ann); !bytes.Equal(buf.body, want) {
						t.Fatalf("%s degraded: body\n%s\nwant\n%s", path, buf.body, want)
					}
					putQueryBuf(buf)
					bodies++
				}
			}
		}
	}
	if relaxed == 0 || bodies < 100 {
		t.Fatalf("compared %d bodies, %d relaxed", bodies, relaxed)
	}
}

// FuzzAppendJSONString: appendJSONString, over a string or a byte slice
// and after existing bytes, writes exactly what encoding/json does.
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range []string{
		"", "plain", "«john,vcr»\n  └─ part[key=1005 name=TV]",
		`<a href="x">&amp;</a>`, "back\\slash \"quote\"",
		"\x00\x01\x08\x0c\x1f\x7f", "tab\tnl\nret\r",
		"\xff\xfe", "\xe2\x80", "truncated \xe2\x80\xa8x",
		"\u2028\u2029", "line\u2028sep", "\ufffd", "\U0001F600",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("string %q: %s, want %s", s, got, want)
		}
		if got := appendJSONString([]byte("x:"), []byte(s)); !bytes.Equal(got, append([]byte("x:"), want...)) {
			t.Fatalf("bytes %q: %s, want x:%s", s, got, want)
		}
	})
}
