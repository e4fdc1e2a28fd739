// The navigation example walks through Figure 3 of the paper: the
// presentation graph of the "US, VCR" query over the Figure 1/2 data.
// The initial graph shows one result tree; expanding the lineitem node
// reveals the second lineitem connected to the same person and TV part
// (the multivalued-dependency redundancy that a flat result list would
// show four times); contracting hides it again.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/presentation"
)

func main() {
	ds, err := datagen.TPCHFigure1()
	if err != nil {
		log.Fatal(err)
	}
	sys, err := core.LoadPrepared(ds, core.Options{Z: 8})
	if err != nil {
		log.Fatal(err)
	}

	// Find the Figure 3 candidate network:
	// person{us} — lineitem — part — part{vcr}.
	nets, err := sys.Networks(context.Background(), []string{"us", "vcr"})
	if err != nil {
		log.Fatal(err)
	}
	idx := -1
	for i, tn := range nets {
		segs := map[string]int{}
		for _, o := range tn.Occs {
			segs[o.Segment]++
		}
		if len(tn.Occs) == 4 && segs["person"] == 1 && segs["lineitem"] == 1 && segs["part"] == 2 {
			idx = i
			break
		}
	}
	if idx < 0 {
		log.Fatal("figure-3 network not found")
	}
	net := nets[idx]

	sess := sys.PresentationSession(nil)
	g, err := sess.Build(net)
	if err != nil {
		log.Fatal(err)
	}
	show(sys, g, "initial presentation graph (one MTTON, Figure 3a)")

	liOcc := -1
	for i, o := range g.Net.Occs {
		if o.Segment == "lineitem" {
			liOcc = i
		}
	}
	added, err := g.Expand(liOcc, presentation.ExpandOptions{})
	if err != nil {
		log.Fatal(err)
	}
	show(sys, g, fmt.Sprintf("after expanding the lineitem node (+%d, Figure 3b)", added))

	keep := g.Displayed(liOcc)[0]
	if err := g.Contract(liOcc, keep); err != nil {
		log.Fatal(err)
	}
	show(sys, g, "after contracting back to one lineitem (Figure 3c)")
}

func show(sys *core.System, g *presentation.Graph, title string) {
	fmt.Printf("\n== %s ==\n", title)
	for i, o := range g.Net.Occs {
		var sums []string
		for _, to := range g.Displayed(i) {
			sums = append(sums, sys.Obj.Summary(to))
		}
		marker := " "
		if g.Expanded[i] {
			marker = "*"
		}
		fmt.Printf(" %s occ %d (%s): %s\n", marker, i, o.Segment, strings.Join(sums, " | "))
	}
}
