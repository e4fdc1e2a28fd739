package optimizer_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/optimizer"
)

// §6's seed example: for the part{tv} -> part{vcr} network (the VCR is a
// sub-part), the outermost loop must iterate the VCR side — the
// containment child — because many sub-parts share one parent, making
// the inner queries repeat and cache. The containing lists (1 TV, 2
// VCRs) are comparable, so cacheability decides.
func TestSeedPrefersCacheProfitableSide(t *testing.T) {
	s := fig1System(t, core.Options{Z: 8})
	nets, err := s.Networks(context.Background(), []string{"tv", "vcr"})
	if err != nil {
		t.Fatal(err)
	}
	opt := &optimizer.Optimizer{
		TSS: s.TSS, Store: s.Store, Index: s.Index, Stats: s.Stats,
		Fragments: s.Decomp.Fragments, MaxJoins: s.Opts.B,
	}
	checked := false
	for _, tn := range nets {
		// The direct sub-part network: two part occurrences, one edge,
		// the TV containing the VCR.
		if tn.Size() != 1 || len(tn.Occs) != 2 {
			continue
		}
		e := tn.Edges[0]
		te := s.TSS.Edge(e.EdgeID)
		if te.From != "part" || te.To != "part" {
			continue
		}
		// Identify the child (To) occurrence; it must hold vcr or tv.
		childOcc := e.To
		p, err := opt.Plan(tn)
		if err != nil {
			t.Fatal(err)
		}
		if p.Steps[0].Occ != childOcc {
			t.Fatalf("seed = occ%d, want the contained child occ%d (network %s)",
				p.Steps[0].Occ, childOcc, tn)
		}
		checked = true
	}
	if !checked {
		t.Fatal("sub-part network not found; vacuous")
	}
}
