package core

import (
	"context"
	"errors"
	"sort"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/kwindex"
)

// The CN memo used to be a package-global sync.Map keyed by
// *schema.Graph with no eviction: every loaded system's generated
// networks stayed reachable for the life of the process. These are the
// regression tests for the fix — the memo is per-System (its bound is
// pipeline's TestShapesBounded).

func TestNetMemoPerSystem(t *testing.T) {
	ds, err := datagen.TPCHFigure1()
	if err != nil {
		t.Fatal(err)
	}
	load := func() *System {
		s, err := LoadPrepared(&Prepared{Schema: ds.Schema, TSS: ds.TSS, Data: ds.Data, Obj: ds.Obj},
			Options{Z: 8})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a := load()
	if _, err := a.Networks(context.Background(), []string{"john", "vcr"}); err != nil {
		t.Fatal(err)
	}
	if a.shapes.Len() == 0 {
		t.Fatal("query did not populate the memo")
	}
	// A second system over the same schema starts with an empty memo:
	// nothing is shared through package state, so dropping a System
	// drops its memo.
	b := load()
	if got := b.shapes.Len(); got != 0 {
		t.Fatalf("fresh system memo has %d entries", got)
	}
	// Same-shape queries share one generation within a system.
	if _, err := a.Networks(context.Background(), []string{"mike", "vcr"}); err != nil {
		t.Fatal(err)
	}
	if got := a.shapes.Len(); got != 1 {
		t.Fatalf("same-shape queries made %d memo entries, want 1", got)
	}
}

// dblpTitleWords loads the DBLP quick dataset at Z = 8, where a few
// distinct title words make a shape whose cold build takes seconds,
// and returns its title words in sorted order.
func dblpTitleWords(t *testing.T) (*System, []string) {
	t.Helper()
	ds, err := datagen.DBLP(datagen.DefaultDBLPParams())
	if err != nil {
		t.Fatal(err)
	}
	s, err := LoadPrepared(&Prepared{Schema: ds.Schema, TSS: ds.TSS, Data: ds.Data, Obj: ds.Obj}, Options{Z: 8})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var words []string
	for _, id := range ds.Data.Nodes() {
		if n := ds.Data.Node(id); n.Type == "title" {
			for _, w := range kwindex.Tokenize(n.Value) {
				if !seen[w] {
					seen[w] = true
					words = append(words, w)
				}
			}
		}
	}
	sort.Strings(words)
	if len(words) < 5 {
		t.Fatalf("only %d title words", len(words))
	}
	return s, words
}

// TestColdShapeHonoursDeadline: five distinct DBLP title words at Z = 8
// take seconds to generate; a query with a 100 ms deadline must give up
// on the cold build well within a second.
func TestColdShapeHonoursDeadline(t *testing.T) {
	s, words := dblpTitleWords(t)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := s.QueryScoredContext(ctx, words[:5], 10, "")
	took := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("%q: err = %v, want context.DeadlineExceeded", words[:5], err)
	}
	if took > time.Second {
		t.Fatalf("%q with a 100ms deadline returned after %v", words[:5], took)
	}
}

// TestAbandonedColdShapeWarms: a request that gives up on a cold shape
// stops waiting, not the build. Three DBLP title words take about half
// a second to build; a client that retries them with a 50 ms deadline
// must be answered once the build it abandoned has published.
func TestAbandonedColdShapeWarms(t *testing.T) {
	s, words := dblpTitleWords(t)
	kws := words[:3]
	deadline := time.Now().Add(2 * time.Minute)
	for tries := 1; ; tries++ {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		_, _, err := s.QueryScoredContext(ctx, kws, 10, "")
		cancel()
		if err == nil {
			if tries == 1 {
				t.Fatalf("%q answered within 50ms cold; the test needs a slower shape", kws)
			}
			break
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("try %d: err = %v, want context.DeadlineExceeded", tries, err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("%q still cold after %d tries: abandoned builds never publish", kws, tries)
		}
	}
	if n := s.shapes.Len(); n != 1 {
		t.Fatalf("memo holds %d templates, want the one shape", n)
	}
}
