// The tpch example exercises the system over a synthetic TPC-H-like
// dataset (Figure 5 schema): it shows the candidate TSS networks of §4's
// "TV, VCR" example, the decomposition the Figure 12 algorithm chose,
// and the top results of several keyword queries — including a
// three-keyword query, which the engine supports although the paper's
// experiments fix two.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/decomp"
)

func main() {
	params := datagen.DefaultTPCHParams()
	ds, err := datagen.TPCH(params)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := core.LoadPrepared(ds, core.Options{Z: 8})
	if err != nil {
		log.Fatal(err)
	}

	// The decomposition the load stage built (Figure 12's algorithm).
	rep := decomp.Report(sys.Store, sys.TSS, sys.Decomp)
	fmt.Printf("decomposition %q: %d fragments, %d rows, %d pages (M=%d, B=%d)\n",
		rep.Name, rep.Fragments, rep.TotalRows, rep.TotalPages, sys.M, sys.Opts.B)
	for _, f := range rep.PerFrag {
		fmt.Printf("  %-40s %-8s %6d rows\n", f.Fragment, f.Class, f.Rows)
	}

	// §4's example: the candidate TSS networks of "TV, VCR".
	nets, err := sys.Networks(context.Background(), []string{"TV", "VCR"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncandidate TSS networks for \"TV, VCR\" (Z=8): %d\n", len(nets))
	for i, tn := range nets {
		if i >= 8 {
			fmt.Printf("  ... and %d more\n", len(nets)-i)
			break
		}
		fmt.Printf("  CTSSN%-2d size %d score %d: %s\n", i+1, tn.Size(), tn.Score(), tn)
	}

	// Queries.
	for _, q := range [][]string{
		{"TV", "VCR"},
		{"John", "Radio"},
		{"Anna", "US", "Speaker"}, // three keywords
	} {
		fmt.Printf("\nquery %v — top 3:\n", q)
		results, err := sys.Query(q, 3)
		if err != nil {
			log.Fatal(err)
		}
		if len(results) == 0 {
			fmt.Println("  (no results)")
			continue
		}
		for i, r := range results {
			fmt.Printf("\n  #%d score %d\n", i+1, r.Score)
			fmt.Println(indent(sys.RenderResult(r), "  "))
		}
	}
}

func indent(s, pad string) string {
	out := ""
	for _, line := range splitLines(s) {
		out += pad + line + "\n"
	}
	return out[:len(out)-1]
}

func splitLines(s string) []string {
	var lines []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			lines = append(lines, s[start:i])
			start = i + 1
		}
	}
	return append(lines, s[start:])
}
