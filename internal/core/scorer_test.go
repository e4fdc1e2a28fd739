package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/kwindex"
	"repro/internal/pipeline"
	"repro/internal/rank"
)

// runAll answers kws through System.Run in ModeAll under the given
// strategy, ranked by the named scorer ("" keeps the System default).
func runAll(t *testing.T, sys *core.System, kws []string, strat exec.Strategy, scorer string) ([]exec.Result, *pipeline.Relaxation) {
	t.Helper()
	q := &pipeline.Query{Keywords: kws, Mode: pipeline.ModeAll, Strategy: strat}
	if scorer != "" {
		sc, err := rank.New(scorer)
		if err != nil {
			t.Fatal(err)
		}
		q.Scorer = sc
	}
	if err := sys.Run(context.Background(), q); err != nil {
		t.Fatalf("%v all scorer=%q: %v", kws, scorer, err)
	}
	return q.Results, q.Relaxation
}

func mustSameResults(t *testing.T, tag string, got, want []exec.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", tag, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Score != w.Score || g.Ord != w.Ord || !reflect.DeepEqual(g.Bind, w.Bind) || g.Net.Canon() != w.Net.Canon() {
			t.Fatalf("%s: result %d differs:\ngot  score=%d ord=%x bind=%v\nwant score=%d ord=%x bind=%v",
				tag, i, g.Score, g.Ord, g.Bind, w.Score, w.Ord, w.Bind)
		}
	}
}

// TestDefaultScorerEquivalence is the randomized refactor-equivalence
// suite: for a seeded batch of queries, the scored entry point with the
// default scorer (explicitly and via "") must return byte-identical
// answers to a top-k Run that names no scorer, with no relaxation
// record.
func TestDefaultScorerEquivalence(t *testing.T) {
	ds, err := datagen.TPCH(datagen.TPCHParams{
		Persons: 12, OrdersPerPerson: 2, LineitemsPerOrder: 2,
		Parts: 8, SubsPerPart: 2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.LoadPrepared(ds, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ix := kwindex.Build(sys.Obj)
	var vocab []string
	for _, term := range ix.Terms() {
		if len(ix.ContainingList(term)) >= 2 {
			vocab = append(vocab, term)
		}
	}
	if len(vocab) < 4 {
		t.Fatalf("only %d multi-posting terms", len(vocab))
	}
	rng := rand.New(rand.NewSource(99))
	ctx := context.Background()
	for i := 0; i < 12; i++ {
		var kws []string
		seen := map[string]bool{}
		for len(kws) < 2 {
			w := vocab[rng.Intn(len(vocab))]
			if !seen[w] {
				seen[w] = true
				kws = append(kws, w)
			}
		}
		k := []int{1, 3, 10}[rng.Intn(3)]
		wantQ := &pipeline.Query{Keywords: kws, Mode: pipeline.ModeTopK, K: k, Strategy: exec.NestedLoop}
		if err := sys.Run(ctx, wantQ); err != nil {
			t.Fatalf("%v: %v", kws, err)
		}
		want := wantQ.Results
		for _, name := range []string{"", rank.DefaultName} {
			got, rx, err := sys.QueryScoredContext(ctx, kws, k, name)
			if err != nil {
				t.Fatalf("%v scorer %q: %v", kws, name, err)
			}
			if rx != nil {
				t.Fatalf("%v scorer %q: unexpected relaxation %v", kws, name, rx)
			}
			mustSameResults(t, fmt.Sprintf("%v k=%d scorer=%q", kws, k, name), got, want)
		}
		// The all-results path too: naming the default scorer changes
		// nothing.
		wantAll, _ := runAll(t, sys, kws, exec.AutoStrategy, "")
		gotAll, rx := runAll(t, sys, kws, exec.AutoStrategy, rank.DefaultName)
		if rx != nil {
			t.Fatalf("all-path relaxation: %v", rx)
		}
		mustSameResults(t, fmt.Sprintf("%v all", kws), gotAll, wantAll)
	}
}

// Non-default scorers must equal the scorer applied directly to the
// canonical full enumeration — the pipeline's plumbing (full-enumeration
// execute, rank-stage hand-off, context fields) adds or drops nothing.
func TestScoredMatchesDirectRank(t *testing.T) {
	sys := loadFig1(t, core.Options{Z: 8})
	ctx := context.Background()
	kws := []string{"john", "vcr"}
	all, _ := runAll(t, sys, kws, exec.AutoStrategy, "")
	if len(all) < 3 {
		t.Fatalf("only %d results — dataset too small to rank", len(all))
	}
	src, ok := sys.Index.(kwindex.Source)
	if !ok {
		t.Fatalf("index %T is not a kwindex.Source", sys.Index)
	}
	for _, name := range []string{"weighted", "diversified"} {
		for _, k := range []int{0, 2} {
			sc, err := rank.New(name)
			if err != nil {
				t.Fatal(err)
			}
			want := sc.Rank(rank.Context{TSS: sys.TSS, Index: src, Keywords: kws},
				append([]exec.Result(nil), all...), k)
			var got []exec.Result
			if k == 0 {
				got, _ = runAll(t, sys, kws, exec.AutoStrategy, name)
			} else if got, _, err = sys.QueryScoredContext(ctx, kws, k, name); err != nil {
				t.Fatalf("%s k=%d: %v", name, k, err)
			}
			mustSameResults(t, fmt.Sprintf("%s k=%d", name, k), got, want)
		}
	}
	// Determinism across runs.
	a, _, err := sys.QueryScoredContext(ctx, kws, 5, "weighted")
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := sys.QueryScoredContext(ctx, kws, 5, "weighted")
	if err != nil {
		t.Fatal(err)
	}
	mustSameResults(t, "weighted determinism", a, b)
}

// Opts.Scorer is the engine default; per-query names override it and
// unknown names fail loudly at load and at query time.
func TestScorerSelection(t *testing.T) {
	sys := loadFig1(t, core.Options{Z: 8, Scorer: "diversified"})
	ctx := context.Background()
	kws := []string{"john", "vcr"}
	viaDefault, _, err := sys.QueryScoredContext(ctx, kws, 5, "")
	if err != nil {
		t.Fatal(err)
	}
	viaName, _, err := sys.QueryScoredContext(ctx, kws, 5, "diversified")
	if err != nil {
		t.Fatal(err)
	}
	mustSameResults(t, "opts default", viaDefault, viaName)
	if _, _, err := sys.QueryScoredContext(ctx, kws, 5, "nope"); err == nil {
		t.Fatal("unknown per-query scorer did not error")
	}
	ds, err := datagen.TPCHFigure1()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.LoadPrepared(ds,
		core.Options{Scorer: "nope"}); err == nil {
		t.Fatal("unknown Opts.Scorer did not fail the load")
	}
}

// Relaxation: with Relax on, an unmatched keyword is dropped (or a
// multi-token phrase substituted by its matching token) and the answer
// carries the exact record; with Relax off nothing is rewritten.
func TestRelaxation(t *testing.T) {
	sys := loadFig1(t, core.Options{Z: 8, Relax: true})
	ctx := context.Background()

	// Dropped keyword: answers equal the reduced query's.
	got, rx, err := sys.QueryScoredContext(ctx, []string{"john", "zzznope"}, 10, "")
	if err != nil {
		t.Fatal(err)
	}
	if rx == nil || len(rx.Dropped) != 1 || rx.Dropped[0] != "zzznope" {
		t.Fatalf("relaxation = %+v, want zzznope dropped", rx)
	}
	want, rxWant, err := sys.QueryScoredContext(ctx, []string{"john"}, 10, "")
	if err != nil {
		t.Fatal(err)
	}
	if rxWant != nil {
		t.Fatalf("clean query relaxed: %+v", rxWant)
	}
	mustSameResults(t, "dropped keyword", got, want)

	// Phrase substitution: the individually-matching token survives.
	got, rx, err = sys.QueryScoredContext(ctx, []string{"john zzznope", "vcr"}, 10, "")
	if err != nil {
		t.Fatal(err)
	}
	if rx == nil || rx.Substituted["john zzznope"] != "john" {
		t.Fatalf("relaxation = %+v, want phrase substituted by john", rx)
	}
	want, _, err = sys.QueryScoredContext(ctx, []string{"john", "vcr"}, 10, "")
	if err != nil {
		t.Fatal(err)
	}
	mustSameResults(t, "substituted phrase", got, want)

	// Everything unmatched: empty answer, full record, no error.
	got, rx, err = sys.QueryScoredContext(ctx, []string{"zzznope", "qqnever"}, 10, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("all-dropped query returned %d results", len(got))
	}
	if rx == nil || len(rx.Dropped) != 2 {
		t.Fatalf("relaxation = %+v, want both dropped", rx)
	}

	// Relax off: no rewriting, no record, empty answer.
	strict := loadFig1(t, core.Options{Z: 8})
	got, rx, err = strict.QueryScoredContext(ctx, []string{"john", "zzznope"}, 10, "")
	if err != nil {
		t.Fatal(err)
	}
	if rx != nil {
		t.Fatalf("relax off but relaxation record: %+v", rx)
	}
	if len(got) != 0 {
		t.Fatalf("relax off: unmatched keyword produced %d results", len(got))
	}
}
