package graphsource_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/graphsource"
	"repro/internal/tss"
)

// The XML adapter is a pure repackaging: loading through it must answer
// exactly like the direct core.Load path it generalizes.
func TestXMLAdapterEquivalence(t *testing.T) {
	sg, spec := datagen.TPCHSchema(), datagen.TPCHSpec()
	dsA, err := datagen.TPCHFigure1()
	if err != nil {
		t.Fatal(err)
	}
	dsB, err := datagen.TPCHFigure1()
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Z: 8}
	direct, err := core.LoadPrepared(&core.Prepared{Schema: dsA.Schema, TSS: dsA.TSS, Data: dsA.Data, Obj: dsA.Obj}, opts)
	if err != nil {
		t.Fatal(err)
	}
	viaSource, err := graphsource.Load(graphsource.FromXML("fig1", sg, spec, dsB.Data), opts)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	for _, kws := range [][]string{{"john", "vcr"}, {"smith"}} {
		want, _, err := direct.QueryScoredContext(ctx, kws, 10, "")
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := viaSource.QueryScoredContext(ctx, kws, 10, "")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%v: %d results via source, %d direct", kws, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Score != w.Score || g.Ord != w.Ord || !reflect.DeepEqual(g.Bind, w.Bind) || g.Net.Canon() != w.Net.Canon() {
				t.Fatalf("%v: result %d differs between source and direct load", kws, i)
			}
		}
	}
}

// Prepare surfaces source errors instead of half-loading.
type brokenSource struct{ graphsource.Source }

func (brokenSource) DatasetName() string     { return "broken" }
func (brokenSource) Spec() (tss.Spec, error) { return tss.Spec{}, errBoom }
func TestPrepareSurfacesSourceErrors(t *testing.T) {
	sg, spec := datagen.TPCHSchema(), datagen.TPCHSpec()
	ds, err := datagen.TPCHFigure1()
	if err != nil {
		t.Fatal(err)
	}
	src := brokenSource{graphsource.FromXML("fig1", sg, spec, ds.Data)}
	if _, err := graphsource.Prepare(src); err == nil {
		t.Fatal("broken source prepared")
	}
}

var errBoom = context.DeadlineExceeded

// Resolve rejects inputs that name no single data graph, in the terms
// of the flags that set them, before reading any file.
func TestResolveRejectsConflictingInputs(t *testing.T) {
	for _, tc := range []struct {
		in   graphsource.Inputs
		want string
	}{
		{graphsource.Inputs{Nodes: "n.csv"}, "-nodes and -edges must be given together"},
		{graphsource.Inputs{Nodes: "n.csv", Edges: "e.csv", In: "x.xml"}, "-nodes/-edges replace -in"},
		{graphsource.Inputs{Nodes: "n.csv", Edges: "e.csv", XSD: "x.xsd"}, "-nodes/-edges replace -dtd/-xsd"},
		{graphsource.Inputs{DTD: "x.dtd", In: "x.xml"}, "-dtd/-xsd require -spec"},
		{graphsource.Inputs{DTD: "x.dtd", Spec: "x.spec"}, "-dtd/-xsd require -in"},
		{graphsource.Inputs{Schema: "nosuch"}, `unknown schema "nosuch"`},
	} {
		_, err := graphsource.Resolve(tc.in)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: error %v, want one saying %q", tc.in, err, tc.want)
		}
	}
}
