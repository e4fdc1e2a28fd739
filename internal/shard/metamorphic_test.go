package shard_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/pipeline"
	"repro/internal/qserve"
	"repro/internal/rank"
)

// builtinTPCH loads the built-in TPC-H dataset at Z=8, what
// `xkeyword -schema tpch` serves: enough results per query (101 for
// "us vcr") that every top-k cutoff below lands inside the answer.
func builtinTPCH(t *testing.T) *core.System {
	t.Helper()
	ds, err := datagen.TPCH(datagen.DefaultTPCHParams())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.LoadPrepared(ds, core.Options{Z: 8})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// fronts returns the two serving engines: the single node and a 2-shard
// coordinator over it.
func fronts(t *testing.T, sys *core.System) map[string]qserve.Engine {
	return map[string]qserve.Engine{
		"single": sys,
		"n=2":    startCluster(t, sys, 2, clusterConfig{}).coord,
	}
}

// TestNonPositiveKReturnsNothing: k ≤ 0 asks for no results and gets
// none, for every scorer, on the single node and the coordinator alike.
// A non-default scorer full-enumerates before ranking, so k must be
// honoured before execution, not left to the rank stage's truncation.
func TestNonPositiveKReturnsNothing(t *testing.T) {
	sys := builtinTPCH(t)
	kws := []string{"us", "vcr"}
	ctx := context.Background()
	for name, eng := range fronts(t, sys) {
		for _, scorer := range rank.Names() {
			for _, k := range []int{0, -1} {
				rs, _, err := eng.QueryScoredContext(ctx, kws, k, scorer)
				if err != nil {
					t.Fatalf("%s scorer=%s k=%d: %v", name, scorer, k, err)
				}
				if len(rs) != 0 {
					t.Fatalf("%s scorer=%s k=%d: %d results, want none", name, scorer, k, len(rs))
				}
			}
		}
	}
}

// TestRunNonPositiveKReturnsNothing: the pipeline itself answers a
// ModeTopK query with K ≤ 0 with no results, for the scorers that
// enumerate every plan before ranking — not only the serving entry
// points in front of it.
func TestRunNonPositiveKReturnsNothing(t *testing.T) {
	sys := builtinTPCH(t)
	for _, name := range []string{"weighted", "diversified"} {
		sc, err := rank.New(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{0, -1} {
			q := &pipeline.Query{Keywords: []string{"us", "vcr"}, Mode: pipeline.ModeTopK, K: k, Scorer: sc}
			if err := sys.Run(context.Background(), q); err != nil {
				t.Fatalf("scorer=%s k=%d: %v", name, k, err)
			}
			if len(q.Results) != 0 {
				t.Fatalf("scorer=%s k=%d: %d results, want none", name, k, len(q.Results))
			}
		}
	}
}

// TestTopKMetamorphic checks two relations that need no oracle, for
// every scorer: on each front, top-k is a prefix of top-(k+1) for
// k = 1…11, and the coordinator's answer equals the single node's.
func TestTopKMetamorphic(t *testing.T) {
	sys := builtinTPCH(t)
	queries := [][]string{{"us", "vcr"}, {"vcr", "us"}, {"mike", "dvd"}, {"john", "us", "vcr"}, {"vcr"}}
	ctx := context.Background()
	fs := fronts(t, sys)
	for _, scorer := range rank.Names() {
		for _, kws := range queries {
			answers := map[string][][]exec.Result{}
			for name, eng := range fs {
				for k := 1; k <= 12; k++ {
					rs, _, err := eng.QueryScoredContext(ctx, kws, k, scorer)
					if err != nil {
						t.Fatalf("%s scorer=%s %v k=%d: %v", name, scorer, kws, k, err)
					}
					answers[name] = append(answers[name], rs)
				}
				for k := 1; k <= 11; k++ {
					small, large := answers[name][k-1], answers[name][k]
					if len(small) != min(k, len(large)) {
						t.Fatalf("%s scorer=%s %v: top-%d has %d results, top-%d %d",
							name, scorer, kws, k, len(small), k+1, len(large))
					}
					mustEqualResults(t, fmt.Sprintf("%s scorer=%s %v: top-%d against the prefix of top-%d", name, scorer, kws, k, k+1),
						small, large[:len(small)])
				}
			}
			for k := 1; k <= 12; k++ {
				mustEqualResults(t, fmt.Sprintf("scorer=%s %v k=%d: coordinator against single node", scorer, kws, k),
					answers["n=2"][k-1], answers["single"][k-1])
			}
		}
	}
}

// TestRepeatedKeywordExtendsSingle: "w w" is its own keyword shape (the
// shape memo keys it apart from "w"), and its answer extends the answer
// to "w": on each front, top-k of "w" is a prefix of top-k of "w w",
// compared by (Score, Bind) in order, and when "w" has fewer than k
// results they are exactly the score-0 results of "w w", the
// single-object trees both queries share.
func TestRepeatedKeywordExtendsSingle(t *testing.T) {
	sys := builtinTPCH(t)
	ctx := context.Background()
	same := func(a, b exec.Result) bool { return a.Score == b.Score && slices.Equal(a.Bind, b.Bind) }
	exhausted := 0 // results of "w" compared against the score-0 ones of "w w"
	for name, eng := range fronts(t, sys) {
		for _, w := range []string{"us", "vcr", "john", "smith", "tv"} {
			for _, k := range []int{5, 50, 1000} {
				tag := fmt.Sprintf("%s %q k=%d", name, w, k)
				single, _, err := eng.QueryScoredContext(ctx, []string{w}, k, "")
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				twice, _, err := eng.QueryScoredContext(ctx, []string{w, w}, k, "")
				if err != nil {
					t.Fatalf("%s twice: %v", tag, err)
				}
				if len(single) > len(twice) || !slices.EqualFunc(single, twice[:len(single)], same) {
					t.Fatalf("%s: the %d results of %q are not a prefix of the %d of %q",
						tag, len(single), w, len(twice), w+" "+w)
				}
				if len(single) == k {
					continue
				}
				exhausted += len(single)
				var zero []exec.Result
				for _, r := range twice {
					if r.Score == 0 {
						zero = append(zero, r)
					}
				}
				if !slices.EqualFunc(single, zero, same) {
					t.Fatalf("%s: %q has %d results, %q has %d of score 0; want the same trees",
						tag, w, len(single), w+" "+w, len(zero))
				}
			}
		}
	}
	if exhausted == 0 {
		t.Fatal("no keyword ran out of results below k: the score-0 relation was never checked")
	}
}
