package decomp

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/tss"
)

func benchDBLP(b *testing.B) *tss.Graph {
	b.Helper()
	tg, err := tss.Derive(datagen.DBLPSchema(), datagen.DBLPSpec())
	if err != nil {
		b.Fatal(err)
	}
	return tg
}

// BenchmarkXKeywordCold runs the Figure 12 search on DBLP at the M and B
// the presets load with, bypassing the per-graph memo: the cost the first
// core.Load of a schema pays.
func BenchmarkXKeywordCold(b *testing.B) {
	tg := benchDBLP(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xkeywordUncached(tg, 6, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnumerateShapes lists the DBLP CTSSN shapes of size up to 6,
// the first phase of the search.
func BenchmarkEnumerateShapes(b *testing.B) {
	tg := benchDBLP(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(EnumerateShapes(tg, 6)) == 0 {
			b.Fatal("no shapes")
		}
	}
}
