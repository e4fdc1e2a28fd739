// Command xkbench regenerates the evaluation figures of "Keyword
// Proximity Search on XML Graphs" (ICDE 2003, §7): Figure 15(a) top-K
// per decomposition, Figure 15(b) all-results per decomposition,
// Figure 16(a) optimized-vs-naive execution, and Figure 16(b)
// presentation-graph expansion. Output is one text table per figure;
// cost is reported as wall time and simulated page reads.
//
// Usage:
//
//	xkbench [-fig 15a|15b|16a|16b|z|space|stages|baseline|all] [-quick]
//	        [-queries N] [-seed N] [-papers N] [-authors N] [-cites N]
//	        [-disk-index] [-index-cache-bytes N]
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/diskindex"
	"repro/internal/experiments"
)

// figures are the values -fig accepts.
var figures = []string{"15a", "15b", "16a", "16b", "z", "space", "stages", "baseline", "all"}

func main() {
	var (
		figFlag = flag.String("fig", "all", "figure to regenerate: "+strings.Join(figures, ", "))
		quick   = flag.Bool("quick", false, "use the small test-scale configuration")
		queries = flag.Int("queries", 0, "override the number of query pairs to average over")
		seed    = flag.Int64("seed", 0, "override the workload seed")
		papers  = flag.Int("papers", 0, "override papers per conference-year")
		authors = flag.Int("authors", 0, "override the number of authors")
		cites   = flag.Int("cites", 0, "override the average citations per paper")

		diskIdx  = flag.Bool("disk-index", false, "serve the master index from a paged .xki file through a buffer pool instead of RAM")
		idxCache = flag.Int64("index-cache-bytes", diskindex.DefaultCacheBytes, "buffer-pool budget for -disk-index")
	)
	flag.Parse()
	if !slices.Contains(figures, *figFlag) {
		fatal(fmt.Errorf("unknown figure %q (want one of %s)", *figFlag, strings.Join(figures, ", ")))
	}

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	if *queries > 0 {
		cfg.Queries = *queries
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *papers > 0 {
		cfg.DBLP.PapersPerYear = *papers
	}
	if *authors > 0 {
		cfg.DBLP.Authors = *authors
	}
	if *cites > 0 {
		cfg.DBLP.AvgCitations = *cites
	}
	cfg.DiskIndex = *diskIdx
	cfg.IndexCacheBytes = *idxCache

	fmt.Printf("# xkbench: DBLP-like dataset (%d conf × %d years × %d papers, %d authors, avg %d citations), Z=%d B=%d, %d query pairs\n",
		cfg.DBLP.Conferences, cfg.DBLP.YearsPerConf, cfg.DBLP.PapersPerYear,
		cfg.DBLP.Authors, cfg.DBLP.AvgCitations, cfg.Z, cfg.B, cfg.Queries)
	start := time.Now()
	w, err := experiments.NewWorkload(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("# dataset: %d nodes, %d target objects, %d object edges (generated in %v)\n",
		w.DS.Data.NumNodes(), w.DS.Obj.NumObjects(), w.DS.Obj.NumEdges(), time.Since(start).Round(time.Millisecond))
	if cfg.DiskIndex {
		fmt.Printf("# master index: disk-backed, buffer pool %d bytes\n", *idxCache)
	}
	fmt.Println()

	run := func(id string, fn func(*experiments.Workload) (experiments.Figure, error)) {
		if *figFlag != "all" && *figFlag != id {
			return
		}
		t0 := time.Now()
		fig, err := fn(w)
		if err != nil {
			fatal(err)
		}
		fmt.Println(fig.Format())
		fmt.Printf("# figure %s computed in %v\n\n", id, time.Since(t0).Round(time.Millisecond))
	}
	if *figFlag == "space" || *figFlag == "all" {
		report, err := experiments.SpaceComparison(w)
		if err != nil {
			fatal(err)
		}
		fmt.Println(report)
	}
	run("15a", experiments.Fig15a)
	run("15b", experiments.Fig15b)
	run("16a", experiments.Fig16a)
	run("16b", experiments.Fig16b)
	if *figFlag == "z" || *figFlag == "all" {
		t0 := time.Now()
		fig, err := experiments.FigZ(w, []int{5, 6, 7, 8})
		if err != nil {
			fatal(err)
		}
		fmt.Println(fig.Format())
		fmt.Printf("# figure z computed in %v\n\n", time.Since(t0).Round(time.Millisecond))
	}
	if *figFlag == "stages" || *figFlag == "all" {
		t0 := time.Now()
		tbl, err := experiments.StageBreakdown(w, 10)
		if err != nil {
			fatal(err)
		}
		fmt.Println(tbl.Format())
		fmt.Printf("# stage breakdown computed in %v\n\n", time.Since(t0).Round(time.Millisecond))
	}
	if *figFlag == "baseline" || *figFlag == "all" {
		t0 := time.Now()
		bcfg := cfg
		bcfg.DBLP.AvgCitations = 10 // keep scale-4 affordable
		fig, err := experiments.FigBaseline(bcfg, []int{1, 2, 4})
		if err != nil {
			fatal(err)
		}
		fmt.Println(fig.Format())
		fmt.Printf("# figure baseline computed in %v\n\n", time.Since(t0).Round(time.Millisecond))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xkbench:", err)
	os.Exit(1)
}
