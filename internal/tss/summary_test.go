package tss_test

import (
	"strings"
	"testing"

	"repro/internal/schema"
	"repro/internal/tss"
	"repro/internal/xmlgraph"
)

// Generic graph sources (edge lists) can produce head nodes with empty
// labels; Summary must fall back to the head's schema node, which names
// the segment, instead of rendering "#42".
func TestSummaryFallsBackToSegment(t *testing.T) {
	sg := schema.New()
	sg.MustBuild(
		sg.AddTaggedNode("item", "", schema.All),
		sg.SetRoot("item"),
	)
	data := xmlgraph.New()
	bare := data.AddNode("", "")
	valued := data.AddNode("", "x")
	if err := sg.Assign(data); err != nil {
		t.Fatal(err)
	}
	tg, err := tss.Derive(sg, tss.Spec{Segments: []tss.SegmentSpec{{Name: "item", Head: "item"}}})
	if err != nil {
		t.Fatal(err)
	}
	og, err := tg.Decompose(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := og.Summary(int64(bare)); !strings.HasPrefix(got, "item#") {
		t.Fatalf("Summary(bare) = %q, want item#<id>", got)
	}
	if got := og.Summary(int64(valued)); got != "item[x]" {
		t.Fatalf("Summary(valued) = %q, want item[x]", got)
	}
}
