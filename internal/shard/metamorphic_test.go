package shard_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exec"
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
	sys, err := core.LoadPrepared(&core.Prepared{Schema: ds.Schema, TSS: ds.TSS, Data: ds.Data, Obj: ds.Obj}, core.Options{Z: 8})
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
