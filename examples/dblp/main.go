// The dblp example mirrors the paper's demo (Figure 4): a DBLP-like
// bibliography (Figure 14 schema — conferences, years, papers, authors,
// citations) queried with two author names, presented as a ranked list
// of result trees, like the web-search-engine presentation of §3.1.
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/core"
	"repro/internal/datagen"
)

func main() {
	params := datagen.DefaultDBLPParams()
	params.AvgCitations = 10
	ds, err := datagen.DBLP(params)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := core.LoadPrepared(ds, core.Options{Z: 8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded: %d target objects, %d connection relations (%s decomposition)\n",
		sys.Obj.NumObjects(), len(sys.Decomp.Fragments), sys.Decomp.Name)

	// Pick two authors who co-authored a paper, so close results exist.
	a1, a2 := coAuthors(sys)
	fmt.Printf("\nquery: %q, %q — top 5 results\n", a1, a2)
	results, err := sys.Query([]string{a1, a2}, 5)
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range results {
		fmt.Printf("\n#%d  score %d\n%s\n", i+1, r.Score, sys.RenderResult(r))
	}

	// A second query: an author against a title word.
	fmt.Printf("\nquery: %q, %q — top 3 results\n", a1, "keyword")
	results, err = sys.Query([]string{a1, "keyword"}, 3)
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range results {
		fmt.Printf("\n#%d  score %d\n%s\n", i+1, r.Score, sys.RenderResult(r))
	}
}

func coAuthors(sys *core.System) (string, string) {
	for _, pa := range sys.Obj.BySegment("paper") {
		var names []string
		for _, e := range sys.Obj.Out(pa) {
			if sys.Obj.TO(e.To).Segment == "author" {
				sum := sys.Obj.Summary(e.To)
				names = append(names, strings.TrimSuffix(strings.SplitN(sum, "name=", 2)[1], "]"))
			}
		}
		if len(names) >= 2 {
			return names[0], names[1]
		}
	}
	log.Fatal("no co-authored paper in the generated data")
	return "", ""
}
