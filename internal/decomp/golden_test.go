package decomp_test

import (
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/decomp"
	"repro/internal/tss"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/shapes.golden")

// TestShapeOrderGolden pins the output order of EnumerateShapes and the
// fragment list the Figure 12 algorithm derives from it, for the DBLP
// and TPC-H TSS graphs at the M the presets load with. The golden file
// was written before EnumerateShapes stopped recomputing Canon inside
// its sort comparator; the order (and so the decomposition) must not
// move.
func TestShapeOrderGolden(t *testing.T) {
	var sb strings.Builder
	for _, g := range []struct {
		name string
		sg   func() (*tss.Graph, error)
	}{
		{"dblp", func() (*tss.Graph, error) { return tss.Derive(datagen.DBLPSchema(), datagen.DBLPSpec()) }},
		{"tpch", func() (*tss.Graph, error) { return tss.Derive(datagen.TPCHSchema(), datagen.TPCHSpec()) }},
	} {
		tg, err := g.sg()
		if err != nil {
			t.Fatal(err)
		}
		const m, b = 6, 2
		shapes := decomp.EnumerateShapes(tg, m)
		h := crc32.NewIEEE()
		for _, s := range shapes {
			h.Write([]byte(s.Canon()))
			h.Write([]byte{0})
		}
		fmt.Fprintf(&sb, "%s m=%d shapes=%d order-crc=%08x\n", g.name, m, len(shapes), h.Sum32())
		for i, s := range shapes {
			if i < 40 || i%97 == 0 {
				fmt.Fprintf(&sb, "  shape %d: %s\n", i, s.Canon())
			}
		}
		d, err := decomp.XKeyword(tg, m, b)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range d.Fragments {
			fmt.Fprintf(&sb, "  fragment %s %s\n", f.Key(), f.String(tg))
		}
	}
	const path = "testdata/shapes.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if sb.String() != string(want) {
		t.Fatalf("shape order or fragment list moved; got:\n%s\nwant:\n%s", sb.String(), want)
	}
}
