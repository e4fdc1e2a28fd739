package datagen

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math/rand"
)

// CitationParams sizes a synthetic citation-network dump: papers with
// titles and years, authors, venues, and typed links between them. The
// output is an edge-list (CSV) workload — the generic-source path's
// counterpart to the XML DBLP generator — exercised by cmd/xkgen
// -schema citation and the internal/edgelist tests and benchmarks.
type CitationParams struct {
	Papers     int
	Authors    int
	Venues     int
	AvgCites   int // citations per paper, uniform in [0, 2*AvgCites]
	MaxAuthors int // authors per paper, uniform in [1, MaxAuthors]
	Seed       int64
}

// DefaultCitationParams returns the configuration used by the unit
// tests and the committed experiment table: small enough to be fast,
// dense enough for multi-hop proximity results.
func DefaultCitationParams() CitationParams {
	return CitationParams{
		Papers:     120,
		Authors:    40,
		Venues:     8,
		AvgCites:   4,
		MaxAuthors: 3,
		Seed:       1,
	}
}

// CitationCSV generates the citation network as an edge-list dump:
// a nodes file (header id,type,title,year,name — papers fill
// title/year, authors and venues fill name) and an edges file (header
// from,to,label with labels cites, written_by and published_in). Both
// are ready for edgelist.Parse. Deterministic for a given seed.
func CitationCSV(p CitationParams) (nodes, edges []byte, err error) {
	if p.Papers < 1 || p.Authors < 1 || p.Venues < 1 {
		return nil, nil, fmt.Errorf("datagen: citation needs at least one paper, author and venue (got %d/%d/%d)", p.Papers, p.Authors, p.Venues)
	}
	if p.MaxAuthors < 1 {
		return nil, nil, fmt.Errorf("datagen: citation MaxAuthors must be >= 1 (got %d)", p.MaxAuthors)
	}
	rng := rand.New(rand.NewSource(p.Seed))

	var nbuf, ebuf bytes.Buffer
	nw := csv.NewWriter(&nbuf)
	ew := csv.NewWriter(&ebuf)
	write := func(w *csv.Writer, rec ...string) {
		if err == nil {
			err = w.Write(rec)
		}
	}
	write(nw, "id", "type", "title", "year", "name")
	write(ew, "from", "to", "label")

	for i := 0; i < p.Authors; i++ {
		write(nw, fmt.Sprintf("a%d", i), "author", "", "", AuthorName(i))
	}
	for i := 0; i < p.Venues; i++ {
		write(nw, fmt.Sprintf("v%d", i), "venue", "", "", confNames[i%len(confNames)])
	}
	for i := 0; i < p.Papers; i++ {
		id := fmt.Sprintf("p%d", i)
		write(nw, id, "paper", title(rng), fmt.Sprint(1993+rng.Intn(10)), "")
		n := 1 + rng.Intn(p.MaxAuthors)
		perm := rng.Perm(p.Authors)
		for k := 0; k < n && k < len(perm); k++ {
			write(ew, id, fmt.Sprintf("a%d", perm[k]), "written_by")
		}
		write(ew, id, fmt.Sprintf("v%d", rng.Intn(p.Venues)), "published_in")
	}
	// Citations go last so every endpoint id already exists above; the
	// uniform [0, 2*AvgCites] draw mirrors the DBLP generator.
	for i := 0; i < p.Papers; i++ {
		n := 0
		if p.AvgCites > 0 {
			n = rng.Intn(2*p.AvgCites + 1)
		}
		for k := 0; k < n; k++ {
			target := rng.Intn(p.Papers)
			if target == i {
				continue
			}
			write(ew, fmt.Sprintf("p%d", i), fmt.Sprintf("p%d", target), "cites")
		}
	}
	nw.Flush()
	ew.Flush()
	if err == nil {
		err = nw.Error()
	}
	if err == nil {
		err = ew.Error()
	}
	if err != nil {
		return nil, nil, fmt.Errorf("datagen: writing citation csv: %w", err)
	}
	return nbuf.Bytes(), ebuf.Bytes(), nil
}
