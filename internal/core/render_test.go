package core_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exec"
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
	dblp, err := core.LoadPrepared(&core.Prepared{Schema: ds.Schema, TSS: ds.TSS, Data: ds.Data, Obj: ds.Obj},
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
