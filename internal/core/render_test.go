package core_test

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/jsonstr"
	"repro/internal/kwindex"
)

// referenceRender is the per-result renderer core.RenderResult replaced
// (an adjacency list and an edge map per result, the object graph's
// summary of every bound TO re-derived), kept as the reference the
// memoised, per-network renderer must match byte for byte.
func referenceRender(s *core.System, r exec.Result) string {
	adj := make([][]int, len(r.Net.Occs))
	type edgeInfo struct {
		label   string
		forward bool
	}
	edges := make(map[[2]int]edgeInfo)
	for _, e := range r.Net.Edges {
		te := s.TSS.Edge(e.EdgeID)
		adj[e.From] = append(adj[e.From], e.To)
		adj[e.To] = append(adj[e.To], e.From)
		edges[[2]int{e.From, e.To}] = edgeInfo{label: te.ForwardLabel, forward: true}
		edges[[2]int{e.To, e.From}] = edgeInfo{label: te.BackwardLabel, forward: false}
	}
	var sb strings.Builder
	visited := make([]bool, len(r.Net.Occs))
	var walk func(v, depth int)
	walk = func(v, depth int) {
		visited[v] = true
		sb.WriteString(strings.Repeat("  ", depth))
		if depth > 0 {
			sb.WriteString("└─ ")
		}
		sb.WriteString(s.Obj.Summary(r.Bind[v]))
		if kws := r.Net.Occs[v].Keywords; len(kws) > 0 {
			var ks []string
			for _, k := range kws {
				ks = append(ks, k.Keyword)
			}
			fmt.Fprintf(&sb, "  «%s»", strings.Join(ks, ","))
		}
		sb.WriteString("\n")
		for _, o := range adj[v] {
			if visited[o] {
				continue
			}
			info := edges[[2]int{v, o}]
			sb.WriteString(strings.Repeat("  ", depth+1))
			fmt.Fprintf(&sb, "(%s)\n", info.label)
			walk(o, depth+1)
		}
	}
	walk(0, 0)
	return strings.TrimRight(sb.String(), "\n")
}

// renderQueries is every two-keyword query over the Figure 1 data's
// interesting words plus co-author and random author pairs of a small
// DBLP instance: networks of every shape the fixtures produce.
func renderQueries(t *testing.T) map[*core.System][][]string {
	t.Helper()
	fig1 := loadFig1(t, core.Options{Z: 8})
	words := []string{"john", "mike", "vcr", "tv", "dvd", "us", "tuner"}
	var fq [][]string
	for i, a := range words {
		for _, b := range words[i+1:] {
			fq = append(fq, []string{a, b})
		}
	}
	p := datagen.DefaultDBLPParams()
	ds, err := datagen.DBLP(p)
	if err != nil {
		t.Fatal(err)
	}
	dblp, err := core.LoadPrepared(ds,
		core.Options{Z: 6})
	if err != nil {
		t.Fatal(err)
	}
	var dq [][]string
	for i := 0; i+7 < p.Authors; i += 5 {
		a := kwindex.Tokenize(datagen.AuthorName(i))
		b := kwindex.Tokenize(datagen.AuthorName(i + 7))
		dq = append(dq, []string{a[len(a)-1], b[len(b)-1]}, []string{"xml", a[len(a)-1]})
	}
	return map[*core.System][][]string{fig1: fq, dblp: dq}
}

// TestRenderMatchesReference: RenderResult, a Renderer shared by all of
// a query's results, and ResultSummaries agree with the reference
// renderer and tss.ObjectGraph.Summary on every result.
func TestRenderMatchesReference(t *testing.T) {
	results := 0
	for sys, queries := range renderQueries(t) {
		for _, q := range queries {
			rs, err := sys.QueryAll(q)
			if err != nil {
				t.Fatal(err)
			}
			rd := sys.NewRenderer()
			for _, r := range rs {
				results++
				want := referenceRender(sys, r)
				if got := sys.RenderResult(r); got != want {
					t.Fatalf("%v: RenderResult\n%s\nwant\n%s", q, got, want)
				}
				if got := string(rd.AppendResult([]byte("prefix\n"), r)); got != "prefix\n"+want {
					t.Fatalf("%v: shared Renderer\n%s\nwant\n%s", q, got, "prefix\n"+want)
				}
				for i, sum := range sys.ResultSummaries(r) {
					if want := sys.Obj.Summary(r.Bind[i]); sum != want {
						t.Fatalf("%v: summary of TO %d = %q, want %q", q, r.Bind[i], sum, want)
					}
				}
			}
		}
	}
	if results < 100 {
		t.Fatalf("only %d results compared", results)
	}
	sys := loadFig1(t, core.Options{Z: 8})
	if got := sys.SummaryOf(-1); got != "TO(-1)?" {
		t.Fatalf("SummaryOf(unknown) = %q", got)
	}
}

// TestConcurrentRenderColdMemo races SummaryOf and RenderResult onto a
// System whose summary memo is empty; every goroutine must see the
// object graph's summaries. Run under -race in CI.
func TestConcurrentRenderColdMemo(t *testing.T) {
	ref := loadFig1(t, core.Options{Z: 8})
	rs, err := ref.QueryAll([]string{"john", "vcr"})
	if err != nil || len(rs) == 0 {
		t.Fatalf("query: %v, %d results", err, len(rs))
	}
	want := make([]string, len(rs))
	for i, r := range rs {
		want[i] = referenceRender(ref, r)
	}
	cold := loadFig1(t, core.Options{Z: 8})
	objects := cold.Obj.Objects()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			summaries := func() error {
				for i := range objects {
					to := objects[(i+w*7)%len(objects)]
					if got, want := cold.SummaryOf(to), cold.Obj.Summary(to); got != want {
						return fmt.Errorf("SummaryOf(%d) = %q, want %q", to, got, want)
					}
				}
				return nil
			}
			renders := func() error {
				for i := range rs {
					j := (i + w) % len(rs)
					if got := cold.RenderResult(rs[j]); got != want[j] {
						return fmt.Errorf("result %d rendered\n%s\nwant\n%s", j, got, want[j])
					}
				}
				return nil
			}
			// Half the goroutines render first, so both paths fill slots.
			first, second := summaries, renders
			if w%2 == 0 {
				first, second = renders, summaries
			}
			if err := first(); err != nil {
				errs <- err
				return
			}
			if err := second(); err != nil {
				errs <- err
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestTemplateSegmentsSplitCleanly pins what makes AppendResultJSON's
// piecewise escaping equal escaping the whole rendering: every template
// segment is valid UTF-8 and, but for the root's empty first one, starts
// with a byte that is not a UTF-8 continuation byte, and the escaped
// text the layout walk writes equals escaping each segment. It also
// checks the JSON rendering of every result against escaping
// AppendResult's.
func TestTemplateSegmentsSplitCleanly(t *testing.T) {
	nets := 0
	for sys, queries := range renderQueries(t) {
		for _, q := range queries {
			rs, err := sys.QueryAll(q)
			if err != nil {
				t.Fatal(err)
			}
			rd := sys.NewRenderer()
			for _, r := range rs {
				segs, escapedOK := rd.TemplateSegments(r.Net)
				if !escapedOK {
					t.Fatalf("%v: the layout's escaped text differs from escaping its segments", q)
				}
				for i, seg := range segs {
					if !utf8.ValidString(seg) {
						t.Fatalf("%v: segment %d %q is not valid UTF-8", q, i, seg)
					}
					if seg == "" && i == 0 {
						continue
					}
					if seg == "" || !utf8.RuneStart(seg[0]) {
						t.Fatalf("%v: segment %d %q does not start a rune", q, i, seg)
					}
				}
				nets++
				want := jsonstr.Append([]byte("x:"), rd.AppendResult(nil, r))
				if got := rd.AppendResultJSON([]byte("x:"), r); !bytes.Equal(got, want) {
					t.Fatalf("%v: AppendResultJSON %s, want %s", q, got, want)
				}
			}
		}
	}
	if nets < 100 {
		t.Fatalf("only %d results checked", nets)
	}
}

// evenSummaries stands in for a live index that supplies summaries:
// every even TO presents as sum, every odd one falls through to the
// object graph's memo.
type evenSummaries struct {
	kwindex.Source
	sum string
}

func (e *evenSummaries) Summary(to int64) (string, bool) { return e.sum, to%2 == 0 }

// FuzzAppendResultJSON: whatever bytes a summary holds — invalid UTF-8,
// U+2028/U+2029, <>&, control bytes, trailing newlines that AppendResult
// trims — AppendResultJSON and AppendSummaryJSON equal escaping
// AppendResult's and SummaryOf's output, on a fresh Renderer and on one
// that has laid the networks out already.
func FuzzAppendResultJSON(f *testing.F) {
	for _, s := range []string{
		"", "plain", "\n", "ends\n", "\n\n\n", "<b>&amp;</b>",
		"\x00\x1f\x7f\t\r", "\xff\xfe", "\xe2\x80", "\xa8\xe2\x80",
		"\xe2\x80\xa8\xe2\x80\xa9", "«kw»\n  └─ ", "\xef\xbf\xbd\n",
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
	for _, q := range [][]string{{"john", "vcr"}, {"tv", "us"}, {"mike"}, {"dvd", "tuner"}} {
		rs, err := sys.QueryAll(q)
		if err != nil {
			f.Fatal(err)
		}
		results = append(results, rs...)
	}
	// The last occurrence a layout walks is a leaf, which in an MTTON
	// holds a keyword, so its «keyword» annotation keeps AppendResult's
	// newline trim out of the last summary. Copies of the networks
	// without annotations reach the fallback that escapes AppendResult's
	// output whole.
	for _, r := range results[:len(results):len(results)] {
		net := *r.Net
		net.Occs = slices.Clone(net.Occs)
		for i := range net.Occs {
			net.Occs[i].Keywords = nil
		}
		r.Net = &net
		results = append(results, r)
	}
	src := &evenSummaries{Source: sys.Index}
	sys.Index = src
	shared := sys.NewRenderer()
	f.Fuzz(func(t *testing.T, sum string) {
		src.sum = sum
		for _, r := range results {
			want := jsonstr.Append(nil, sys.RenderResult(r))
			if got := sys.NewRenderer().AppendResultJSON(nil, r); !bytes.Equal(got, want) {
				t.Fatalf("summary %q: fresh Renderer %s, want %s", sum, got, want)
			}
			if got := shared.AppendResultJSON(nil, r); !bytes.Equal(got, want) {
				t.Fatalf("summary %q: shared Renderer %s, want %s", sum, got, want)
			}
			for _, to := range r.Bind {
				if got, want := sys.AppendSummaryJSON(nil, to), jsonstr.Append(nil, sys.SummaryOf(to)); !bytes.Equal(got, want) {
					t.Fatalf("TO %d: AppendSummaryJSON %s, want %s", to, got, want)
				}
			}
		}
	})
}
