package presentation_test

import (
	"testing"

	"math/rand"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/presentation"
)

func newSeededRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// The §7 expansion scenario on DBLP data: build the presentation graph
// of the Author–Paper–Paper–Author chain, expand the first Paper
// occurrence, and check the invariants on a realistic graph.
func TestDBLPChainExpansion(t *testing.T) {
	cfg := experiments.QuickConfig()
	cfg.Queries = 1
	w, err := experiments.NewWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.LoadPrepared(w.DS, core.Options{Z: 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := newSeededRand(7)
	a1, a2, ok := experiments.PairForChain(w.DS, rng, 3)
	if !ok {
		t.Skip("no citation chain in the quick dataset")
	}
	net, err := experiments.AuthorChain(sys.TSS, a1, a2, 3)
	if err != nil {
		t.Fatal(err)
	}
	type probe struct {
		name string
		sess *presentation.Session
	}
	probes := []probe{
		{"combination", sys.PresentationSession(nil)},
		{"minimal", sys.PresentationSession(sys.MinimalFragments())},
		{"inlined", sys.PresentationSession(sys.InlinedFragments())},
	}
	var firstDisplayed []int64
	for _, pr := range probes {
		g, err := pr.sess.Build(net)
		if err != nil {
			t.Fatalf("%s: %v", pr.name, err)
		}
		if g.NumDisplayed() != len(net.Occs) {
			t.Fatalf("%s: initial PG has %d nodes", pr.name, g.NumDisplayed())
		}
		added, err := g.Expand(1, presentation.ExpandOptions{})
		if err != nil {
			t.Fatalf("%s: %v", pr.name, err)
		}
		_ = added
		got := g.Displayed(1)
		if firstDisplayed == nil {
			firstDisplayed = got
		} else if !sameIDs(firstDisplayed, got) {
			t.Fatalf("%s displayed %v, first variant displayed %v", pr.name, got, firstDisplayed)
		}
		// Contract back to the initially displayed paper.
		keep := g.Displayed(1)[0]
		if err := g.Contract(1, keep); err != nil {
			t.Fatalf("%s: contract: %v", pr.name, err)
		}
		if n := len(g.Displayed(1)); n != 1 {
			t.Fatalf("%s: %d papers after contraction", pr.name, n)
		}
	}
}

// MaxNodes caps the number of nodes an expansion adds (the UI's
// "first 10" rule).
func TestDBLPExpandCap(t *testing.T) {
	cfg := experiments.QuickConfig()
	cfg.Queries = 1
	w, err := experiments.NewWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.LoadPrepared(w.DS, core.Options{Z: 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := newSeededRand(11)
	a1, a2, ok := experiments.PairForChain(w.DS, rng, 4)
	if !ok {
		t.Skip("no chain")
	}
	net, err := experiments.AuthorChain(sys.TSS, a1, a2, 4)
	if err != nil {
		t.Fatal(err)
	}
	sess := sys.PresentationSession(nil)
	uncapped, err := sess.Build(net)
	if err != nil {
		t.Fatal(err)
	}
	addedAll, err := uncapped.Expand(2, presentation.ExpandOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if addedAll < 2 {
		t.Skipf("only %d expandable nodes; cap not observable", addedAll)
	}
	capped, err := sess.Build(net)
	if err != nil {
		t.Fatal(err)
	}
	added, err := capped.Expand(2, presentation.ExpandOptions{MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if added != 1 {
		t.Fatalf("capped expand added %d", added)
	}
}

func sameIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
