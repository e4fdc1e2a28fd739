// Command xkgen emits synthetic datasets matching the paper's two XML
// schemas — the TPC-H-like document of Figures 1/5 and a DBLP-like
// document matching Figure 14 (with synthetic citations) — plus a
// citation-network edge-list dump for the generic graph-source path.
// The XML schemas write a single document that cmd/xkeyword can load
// back; the citation schema writes a <name>.nodes.csv / <name>.edges.csv
// pair for xkeyword -nodes/-edges.
//
// Usage:
//
//	xkgen -schema tpch|dblp [-seed N] [-scale N] [-o file]
//	xkgen -schema citation -o base [-seed N] [-scale N]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/datagen"
	"repro/internal/tss"
	"repro/internal/xmlexport"
)

func main() {
	var (
		schemaFlag = flag.String("schema", "dblp", "dataset schema: tpch, dblp or citation")
		seed       = flag.Int64("seed", 1, "generator seed")
		scale      = flag.Int("scale", 1, "size multiplier over the default parameters")
		out        = flag.String("o", "", "output file (default stdout; required for citation)")
	)
	flag.Parse()
	if *scale < 1 {
		fatal(fmt.Errorf("scale must be >= 1"))
	}
	if *schemaFlag == "citation" {
		emitCitation(*seed, *scale, *out)
		return
	}

	var ds *tss.Dataset
	var err error
	switch *schemaFlag {
	case "tpch":
		p := datagen.DefaultTPCHParams()
		p.Seed = *seed
		p.Persons *= *scale
		p.Parts *= *scale
		ds, err = datagen.TPCH(p)
	case "dblp":
		p := datagen.DefaultDBLPParams()
		p.Seed = *seed
		p.PapersPerYear *= *scale
		p.Authors *= *scale
		ds, err = datagen.DBLP(p)
	default:
		err = fmt.Errorf("unknown schema %q", *schemaFlag)
	}
	if err != nil {
		fatal(err)
	}

	w := bufio.NewWriter(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = bufio.NewWriter(f)
	}
	if err := xmlexport.Write(w, ds.Data, "db"); err != nil {
		fatal(err)
	}
	if err := w.Flush(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "xkgen: %d nodes, %d edges (%s, seed %d, scale %d)\n",
		ds.Data.NumNodes(), ds.Data.NumEdges(), *schemaFlag, *seed, *scale)
}

// emitCitation writes the citation edge-list pair. The two files need
// distinct paths, so -o names a base: "x" (or "x.csv") writes
// x.nodes.csv and x.edges.csv.
func emitCitation(seed int64, scale int, out string) {
	if out == "" {
		fatal(fmt.Errorf("citation writes two files; -o base path is required"))
	}
	p := datagen.DefaultCitationParams()
	p.Seed = seed
	p.Papers *= scale
	p.Authors *= scale
	nodes, edges, err := datagen.CitationCSV(p)
	if err != nil {
		fatal(err)
	}
	base := strings.TrimSuffix(out, ".csv")
	nodesPath, edgesPath := base+".nodes.csv", base+".edges.csv"
	if err := os.WriteFile(nodesPath, nodes, 0o644); err != nil {
		fatal(err)
	}
	if err := os.WriteFile(edgesPath, edges, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "xkgen: %d papers, %d authors, %d venues -> %s, %s (seed %d, scale %d)\n",
		p.Papers, p.Authors, p.Venues, nodesPath, edgesPath, seed, scale)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xkgen:", err)
	os.Exit(1)
}
