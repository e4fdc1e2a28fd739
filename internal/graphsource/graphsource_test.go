package graphsource_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graphsource"
)

// Resolve names the document it read when the document does not fit
// the schema, instead of half-loading it.
func TestResolveNamesNonConformingDocument(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.xml")
	if err := os.WriteFile(path, []byte("<db><mystery/></db>"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := graphsource.Resolve(graphsource.Inputs{Schema: "tpch", In: path})
	if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "schema:") {
		t.Fatalf("non-conforming document: error %v, want one naming %s and the schema", err, path)
	}
}

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
