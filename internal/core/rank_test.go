package core_test

import (
	"testing"

	"repro/internal/cn"
	"repro/internal/xmlgraph"
)

func TestWeightedSize(t *testing.T) {
	net := &cn.Network{
		Occs: []cn.Occ{{Schema: "a"}, {Schema: "b"}, {Schema: "c"}},
		Edges: []cn.Edge{
			{From: 0, To: 1, Kind: xmlgraph.Containment},
			{From: 1, To: 2, Kind: xmlgraph.Reference},
		},
	}
	if got := net.WeightedSize(cn.UnitWeights()); got != 2 {
		t.Fatalf("unit weighted size = %v", got)
	}
	if got := net.WeightedSize(cn.Weights{Containment: 1, Reference: 3}); got != 4 {
		t.Fatalf("weighted size = %v", got)
	}
	tn := &cn.TSSNetwork{CN: net}
	if got := tn.WeightedScore(cn.Weights{Containment: 0.5, Reference: 2}); got != 2.5 {
		t.Fatalf("CTSSN weighted score = %v", got)
	}
	// Without a CN the TSS edge count is the fallback.
	bare := &cn.TSSNetwork{Occs: []cn.TSSOcc{{Segment: "x"}, {Segment: "y"}}, Edges: []cn.TSSEdgeRef{{From: 0, To: 1}}}
	if got := bare.WeightedScore(cn.UnitWeights()); got != 1 {
		t.Fatalf("fallback score = %v", got)
	}
}
