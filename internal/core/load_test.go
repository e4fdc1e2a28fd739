package core_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/tss"
	"repro/internal/xmlgraph"
)

func TestLoadValidation(t *testing.T) {
	ds, err := datagen.TPCHFigure1()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := core.LoadPrepared(nil, core.Options{}); err == nil {
		t.Fatal("nil prepared accepted")
	}
	if _, err := core.LoadPrepared(&tss.Dataset{}, core.Options{}); err == nil {
		t.Fatal("empty prepared accepted")
	}
	if _, err := core.LoadPrepared(ds, core.Options{Z: -1}); err == nil {
		t.Fatal("negative Z accepted")
	}
	if _, err := core.LoadPrepared(ds, core.Options{Decomposition: "nope"}); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestLoadRejectsNonConformingData(t *testing.T) {
	bad := xmlgraph.New()
	bad.AddNode("mystery", "")
	_, err := core.Load(datagen.TPCHSchema(), datagen.TPCHSpec(), bad, core.Options{})
	if err == nil || !strings.Contains(err.Error(), "root") {
		t.Fatalf("non-conforming data: %v", err)
	}
}

func TestLoadEndToEndFromRawGraph(t *testing.T) {
	// Load (as opposed to LoadPrepared) runs conformance, derivation and
	// decomposition itself.
	ds, err := datagen.TPCHFigure1()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.Load(datagen.TPCHSchema(), datagen.TPCHSpec(), ds.Data.Clone(), core.Options{Z: 8})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := sys.Query([]string{"john", "vcr"}, 1)
	if err != nil || len(rs) != 1 || rs[0].Score != 6 {
		t.Fatalf("query: %v, %d results", err, len(rs))
	}
}
