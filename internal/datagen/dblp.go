package datagen

import (
	"fmt"
	"math/rand"

	"repro/internal/schema"
	"repro/internal/tss"
	"repro/internal/xmlgraph"
)

// DBLPSchema returns the DBLP schema graph of Figure 14:
//
//	conference(root) -> cname(1), confyear(*)
//	confyear         -> year(1), paper(*)
//	paper            -> title(1), pages(1), url(1), authorref(*), cite(*)
//	authorref (dummy) -ref-> author      ("by")
//	cite (dummy)      -ref-> paper       ("cites")
//	author(root)     -> aname(1)
func DBLPSchema() *schema.Graph {
	g := schema.New()
	g.MustBuild(
		g.AddNode("conference", schema.All),
		g.AddTaggedNode("cname", "name", schema.All),
		g.AddNode("confyear", schema.All),
		g.AddNode("year", schema.All),
		g.AddNode("paper", schema.All),
		g.AddNode("title", schema.All),
		g.AddNode("pages", schema.All),
		g.AddNode("url", schema.All),
		g.AddNode("authorref", schema.All),
		g.AddNode("cite", schema.All),
		g.AddNode("author", schema.All),
		g.AddTaggedNode("aname", "name", schema.All),
		g.SetRoot("conference"),
		g.SetRoot("author"),

		g.AddEdge("conference", "cname", xmlgraph.Containment, 1),
		g.AddEdge("conference", "confyear", xmlgraph.Containment, schema.Unbounded),
		g.AddEdge("confyear", "year", xmlgraph.Containment, 1),
		g.AddEdge("confyear", "paper", xmlgraph.Containment, schema.Unbounded),
		g.AddEdge("paper", "title", xmlgraph.Containment, 1),
		g.AddEdge("paper", "pages", xmlgraph.Containment, 1),
		g.AddEdge("paper", "url", xmlgraph.Containment, 1),
		g.AddEdge("paper", "authorref", xmlgraph.Containment, schema.Unbounded),
		g.AddEdge("paper", "cite", xmlgraph.Containment, schema.Unbounded),
		g.AddEdge("authorref", "author", xmlgraph.Reference, 1),
		g.AddEdge("cite", "paper", xmlgraph.Reference, 1),
		g.AddEdge("author", "aname", xmlgraph.Containment, 1),
	)
	return g
}

// DBLPSpec returns the target decomposition of Figure 14: Conference,
// Year, Paper and Author segments; authorref and cite are dummies.
func DBLPSpec() tss.Spec {
	return tss.Spec{
		Segments: []tss.SegmentSpec{
			{Name: "conference", Head: "conference", Members: []string{"cname"}},
			{Name: "confyear", Head: "confyear", Members: []string{"year"}},
			{Name: "paper", Head: "paper", Members: []string{"title", "pages", "url"}},
			{Name: "author", Head: "author", Members: []string{"aname"}},
		},
		Annotations: []tss.Annotation{
			{Path: "conference>confyear", Forward: "in year", Backward: "of conference"},
			{Path: "confyear>paper", Forward: "contains paper", Backward: "in issue"},
			{Path: "paper>authorref>author", Forward: "by author", Backward: "of paper"},
			{Path: "paper>cite>paper", Forward: "cites", Backward: "is cited by"},
		},
	}
}

// DBLPParams sizes a synthetic DBLP-like dataset. The paper uses the real
// DBLP dump with synthetic citations (avg 20 per paper); we synthesize
// the whole graph with the same structural parameters.
type DBLPParams struct {
	Conferences   int
	YearsPerConf  int
	PapersPerYear int
	Authors       int
	MinAuthors    int // authors per paper, uniform in [MinAuthors, MaxAuthors]
	MaxAuthors    int
	AvgCitations  int // citations per paper, uniform in [0, 2*AvgCitations]
	Seed          int64
}

// DefaultDBLPParams returns the configuration used by the unit tests:
// small enough to be fast, large enough for multi-result queries.
func DefaultDBLPParams() DBLPParams {
	return DBLPParams{
		Conferences:   4,
		YearsPerConf:  3,
		PapersPerYear: 25,
		Authors:       60,
		MinAuthors:    1,
		MaxAuthors:    3,
		AvgCitations:  5,
		Seed:          1,
	}
}

// BenchDBLPParams returns the larger configuration used by the benchmark
// harness (≈2k papers, avg 20 citations each, as in the paper's setup).
func BenchDBLPParams() DBLPParams {
	return DBLPParams{
		Conferences:   8,
		YearsPerConf:  10,
		PapersPerYear: 25,
		Authors:       600,
		MinAuthors:    1,
		MaxAuthors:    4,
		AvgCitations:  20,
		Seed:          7,
	}
}

// DBLP generates a synthetic DBLP-like dataset. Author names are
// "FirstN LastM" pairs from pools, titles are drawn from a topic
// vocabulary, and citations connect uniformly random papers (avg
// AvgCitations per paper), mirroring the paper's augmentation of DBLP.
func DBLP(p DBLPParams) (*tss.Dataset, error) {
	if p.MinAuthors < 1 || p.MaxAuthors < p.MinAuthors {
		return nil, fmt.Errorf("datagen: bad author bounds [%d,%d]", p.MinAuthors, p.MaxAuthors)
	}
	rng := rand.New(rand.NewSource(p.Seed))
	d := xmlgraph.New()
	cont := func(a, b xmlgraph.NodeID) { d.MustAddEdge(a, b, xmlgraph.Containment) }
	ref := func(a, b xmlgraph.NodeID) { d.MustAddEdge(a, b, xmlgraph.Reference) }

	authors := make([]xmlgraph.NodeID, p.Authors)
	for i := range authors {
		a := d.AddNode("author", "")
		cont(a, d.AddNode("name", AuthorName(i)))
		authors[i] = a
	}
	var papers []xmlgraph.NodeID
	pageStart := 1
	for c := 0; c < p.Conferences; c++ {
		conf := d.AddNode("conference", "")
		cont(conf, d.AddNode("name", confNames[c%len(confNames)]))
		for y := 0; y < p.YearsPerConf; y++ {
			cy := d.AddNode("confyear", "")
			cont(conf, cy)
			cont(cy, d.AddNode("year", fmt.Sprint(1993+y)))
			for i := 0; i < p.PapersPerYear; i++ {
				pa := d.AddNode("paper", "")
				cont(cy, pa)
				cont(pa, d.AddNode("title", title(rng)))
				cont(pa, d.AddNode("pages", fmt.Sprintf("%d-%d", pageStart, pageStart+11)))
				pageStart += 12
				cont(pa, d.AddNode("url", fmt.Sprintf("db/conf/%s/%d-%d.html", confNames[c%len(confNames)], 1993+y, i)))
				n := p.MinAuthors + rng.Intn(p.MaxAuthors-p.MinAuthors+1)
				perm := rng.Perm(len(authors))
				for k := 0; k < n && k < len(perm); k++ {
					ar := d.AddNode("authorref", "")
					cont(pa, ar)
					ref(ar, authors[perm[k]])
				}
				papers = append(papers, pa)
			}
		}
	}
	// Synthetic citations, as the paper adds to DBLP: uniform in
	// [0, 2*AvgCitations] so the mean is AvgCitations.
	for _, pa := range papers {
		n := 0
		if p.AvgCitations > 0 {
			n = rng.Intn(2*p.AvgCitations + 1)
		}
		for k := 0; k < n; k++ {
			target := papers[rng.Intn(len(papers))]
			if target == pa {
				continue
			}
			ci := d.AddNode("cite", "")
			cont(pa, ci)
			ref(ci, target)
		}
	}
	return tss.Prepare(DBLPSchema(), DBLPSpec(), d)
}

// AuthorName returns the deterministic name of the i-th generated author,
// so tests and benchmarks can pick keywords that surely occur.
func AuthorName(i int) string {
	return firstNames[i%len(firstNames)] + " " + lastNames[(i/len(firstNames))%len(lastNames)] + fmt.Sprint(i)
}

func title(rng *rand.Rand) string {
	n := 3 + rng.Intn(4)
	out := ""
	for i := 0; i < n; i++ {
		if i > 0 {
			out += " "
		}
		out += titleWords[rng.Intn(len(titleWords))]
	}
	return out
}

var confNames = []string{"ICDE", "VLDB", "SIGMOD", "PODS", "EDBT", "WWW", "KDD", "CIKM"}
var firstNames = []string{"Alice", "Bob", "Carol", "David", "Elena", "Frank", "Grace", "Hector", "Irene", "Jorge"}
var lastNames = []string{"Smith", "Chen", "Garcia", "Kumar", "Papas", "Ivanov", "Tanaka", "Muller", "Rossi", "Silva"}
var titleWords = []string{
	"keyword", "proximity", "search", "xml", "graphs", "relational",
	"databases", "query", "optimization", "indexing", "semistructured",
	"schema", "storage", "views", "join", "top", "ranking", "web",
	"information", "retrieval", "candidate", "networks", "efficient",
}
