package edgelist_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/edgelist"
	"repro/internal/rank"
)

// BenchmarkGraphsrc measures the edge-list path over the citation
// workload: dump parsing, the full load (decompose + proximity
// relations + index) and per-scorer query latency.
func BenchmarkGraphsrc(b *testing.B) {
	nodes, edges, err := datagen.CitationCSV(datagen.DefaultCitationParams())
	if err != nil {
		b.Fatal(err)
	}

	b.Run("Parse", func(b *testing.B) {
		b.SetBytes(int64(len(nodes) + len(edges)))
		for i := 0; i < b.N; i++ {
			if _, err := edgelist.Parse(bytes.NewReader(nodes), bytes.NewReader(edges), edgelist.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})

	ds, err := edgelist.Parse(bytes.NewReader(nodes), bytes.NewReader(edges), edgelist.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Load(ds.Schema, ds.Spec, ds.Data, core.Options{Z: 6}); err != nil {
				b.Fatal(err)
			}
		}
	})

	sys, err := core.Load(ds.Schema, ds.Spec, ds.Data, core.Options{Z: 6})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, scorer := range rank.Names() {
		b.Run(fmt.Sprintf("Query/%s", scorer), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rs, _, err := sys.QueryScoredContext(ctx, []string{"alice", "icde"}, 5, scorer)
				if err != nil {
					b.Fatal(err)
				}
				if len(rs) == 0 {
					b.Fatal("no results")
				}
			}
		})
	}
}
