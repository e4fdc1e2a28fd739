// The quickstart example runs the paper's introductory query — the
// keywords "John, VCR" over the TPC-H-like XML graph of Figure 1 — and
// prints the ranked MTTON results: the size-6 tree (John supplied the
// lineitem whose product is a "set of VCR and DVD") first, then the
// size-8 trees (VCR sub-parts of the TV part John supplied).
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/datagen"
)

func main() {
	// Load stage: the Figure 1 instance with the Figure 5 schema and the
	// Figure 6 target decomposition, indexed and materialized.
	ds, err := datagen.TPCHFigure1()
	if err != nil {
		log.Fatal(err)
	}
	sys, err := core.LoadPrepared(ds, core.Options{Z: 8})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("query: John, VCR  (max MTNN size Z=8)")
	results, err := sys.QueryAll([]string{"John", "VCR"})
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range results {
		fmt.Printf("\n#%d  score %d (smaller = closer connection)\n", i+1, r.Score)
		fmt.Println(sys.RenderResult(r))
	}
	if len(results) == 0 {
		fmt.Println("no results")
	}
}
