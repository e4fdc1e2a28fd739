package edgelist_test

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/edgelist"
	"repro/internal/rank"
	"repro/internal/tss"
)

func citationBytes(t testing.TB) (nodes, edges []byte) {
	t.Helper()
	nodes, edges, err := datagen.CitationCSV(datagen.DefaultCitationParams())
	if err != nil {
		t.Fatal(err)
	}
	return nodes, edges
}

func parse(t testing.TB, nodes, edges []byte) *edgelist.Dataset {
	t.Helper()
	ds, err := edgelist.Parse(bytes.NewReader(nodes), bytes.NewReader(edges), edgelist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// End to end: the synthetic citation dump parses, loads with core.Load
// like any other data graph, and answers keyword queries under every
// scorer.
func TestCitationEndToEnd(t *testing.T) {
	nodes, edges := citationBytes(t)
	ds := parse(t, nodes, edges)
	p := datagen.DefaultCitationParams()
	if want := p.Papers + p.Authors + p.Venues; ds.NumEntities != want {
		t.Fatalf("NumEntities = %d, want %d", ds.NumEntities, want)
	}
	if ds.NumLinks == 0 {
		t.Fatal("no links parsed")
	}
	sys, err := core.Load(ds.Schema, ds.Spec, ds.Data, core.Options{Z: 6})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, scorer := range rank.Names() {
		rs, rx, err := sys.QueryScoredContext(ctx, []string{"alice", "icde"}, 5, scorer)
		if err != nil {
			t.Fatalf("%s: %v", scorer, err)
		}
		if rx != nil {
			t.Fatalf("%s: unexpected relaxation %v", scorer, rx)
		}
		if len(rs) == 0 {
			t.Fatalf("%s: no results for alice+icde", scorer)
		}
	}
}

// The same dump must always produce the same dataset: schema, spec and
// query answers are functions of the bytes, not of map iteration order.
func TestParseDeterministic(t *testing.T) {
	nodes, edges := citationBytes(t)
	a, b := parse(t, nodes, edges), parse(t, nodes, edges)
	if fmt.Sprintf("%+v", a.Spec) != fmt.Sprintf("%+v", b.Spec) {
		t.Fatal("two parses inferred different specs")
	}
	ctx := context.Background()
	sysA, err := core.Load(a.Schema, a.Spec, a.Data, core.Options{Z: 6})
	if err != nil {
		t.Fatal(err)
	}
	sysB, err := core.Load(b.Schema, b.Spec, b.Data, core.Options{Z: 6})
	if err != nil {
		t.Fatal(err)
	}
	rsA, _, err := sysA.QueryScoredContext(ctx, []string{"alice", "icde"}, 10, "")
	if err != nil {
		t.Fatal(err)
	}
	rsB, _, err := sysB.QueryScoredContext(ctx, []string{"alice", "icde"}, 10, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(rsA) != len(rsB) {
		t.Fatalf("parses answer differently: %d vs %d results", len(rsA), len(rsB))
	}
	for i := range rsA {
		if rsA[i].Score != rsB[i].Score || rsA[i].Ord != rsB[i].Ord {
			t.Fatalf("result %d differs across parses", i)
		}
	}
}

// toTSV rewrites a CSV table tab-separated, exercising the delimiter
// sniffing on real content.
func toTSV(t *testing.T, in []byte) []byte {
	t.Helper()
	recs, err := csv.NewReader(bytes.NewReader(in)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	w := csv.NewWriter(&out)
	w.Comma = '\t'
	if err := w.WriteAll(recs); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

func TestParseTSV(t *testing.T) {
	nodes, edges := citationBytes(t)
	csvDS := parse(t, nodes, edges)
	tsvDS := parse(t, toTSV(t, nodes), toTSV(t, edges))
	if tsvDS.NumEntities != csvDS.NumEntities || tsvDS.NumLinks != csvDS.NumLinks {
		t.Fatalf("TSV parse: %d/%d, CSV parse: %d/%d",
			tsvDS.NumEntities, tsvDS.NumLinks, csvDS.NumEntities, csvDS.NumLinks)
	}
}

// Every malformed input errors loudly, naming the problem.
func TestParseErrors(t *testing.T) {
	goodNodes := "id,type,name\na1,author,Alice\np1,paper,\n"
	goodEdges := "from,to,label\np1,a1,written_by\n"
	cases := []struct {
		name, nodes, edges, want string
	}{
		{"empty nodes", "", goodEdges, "nodes file is empty"},
		{"header only", "id,type,name\n", goodEdges, "no rows"},
		{"bad nodes header", "ident,type\na1,author\n", goodEdges, "must start with id,type"},
		{"duplicate id", "id,type\na1,author\na1,author\n", goodEdges, `duplicate node id "a1"`},
		{"empty id", "id,type\n,author\n", goodEdges, "empty id"},
		{"bad type name", "id,type\na1,au thor\n", goodEdges, "not allowed"},
		{"duplicate attr column", "id,type,name,name\na1,author,x,y\n", goodEdges, "duplicate attribute column"},
		{"bad edges header", goodNodes, "src,dst,label\np1,a1,written_by\n", "must be from,to,label"},
		{"unknown endpoint", goodNodes, "from,to,label\np1,zz,written_by\n", `unknown node id "zz"`},
		{"empty endpoint", goodNodes, "from,to,label\n,a1,written_by\n", "empty endpoint"},
		{"bad label name", goodNodes, "from,to,label\np1,a1,written by\n", "not allowed"},
		{"label collides with type", goodNodes, "from,to,label\np1,a1,author\n", "collides with a node type"},
		{"label collides with attr", goodNodes, "from,to,label\na1,p1,name\n", `collides with attribute "name"`},
		{"ragged row", "id,type\na1,author,extra\n", goodEdges, "wrong number of fields"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := edgelist.Parse(strings.NewReader(tc.nodes), strings.NewReader(tc.edges), edgelist.Options{})
			if err == nil {
				t.Fatal("malformed input accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// An entity-only dump (no edges file content) is a valid dataset.
func TestParseNoEdges(t *testing.T) {
	ds, err := edgelist.Parse(
		strings.NewReader("id,type,name\na1,author,Alice\n"),
		strings.NewReader(""), edgelist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumEntities != 1 || ds.NumLinks != 0 {
		t.Fatalf("counts = %d/%d", ds.NumEntities, ds.NumLinks)
	}
	sys, err := core.Load(ds.Schema, ds.Spec, ds.Data, core.Options{Z: 6})
	if err != nil {
		t.Fatal(err)
	}
	rs, _, err := sys.QueryScoredContext(context.Background(), []string{"alice"}, 5, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 {
		t.Fatalf("%d results for alice", len(rs))
	}
}

// TestChaosEdgelist asserts the robustness invariant on the parser:
// under seeded byte corruption of a valid dump it either fails loudly
// or produces a dataset whose graph still validates and loads — never
// a silent half-graph or a panic.
func TestChaosEdgelist(t *testing.T) {
	nodes, edges := citationBytes(t)
	rng := rand.New(rand.NewSource(31))
	load := 0
	for i := 0; i < 200; i++ {
		n := append([]byte(nil), nodes...)
		e := append([]byte(nil), edges...)
		victim := n
		if rng.Intn(2) == 1 {
			victim = e
		}
		for flips := 1 + rng.Intn(3); flips > 0; flips-- {
			victim[rng.Intn(len(victim))] ^= byte(1 << rng.Intn(8))
		}
		ds, err := edgelist.Parse(bytes.NewReader(n), bytes.NewReader(e), edgelist.Options{})
		if err != nil {
			continue // loud failure is a correct outcome
		}
		// Accepted: the dump must actually be loadable.
		if _, err := tss.Prepare(ds.Schema, ds.Spec, ds.Data); err != nil {
			t.Fatalf("seed %d: parse accepted a dump that does not load: %v", i, err)
		}
		load++
	}
	t.Logf("chaos: %d/200 corrupted dumps still loaded", load)
}

func FuzzParse(f *testing.F) {
	nodes, edges := citationBytes(f)
	f.Add(string(nodes), string(edges))
	f.Add("id,type,name\na1,author,Alice\n", "from,to,label\na1,a1,cites\n")
	f.Add("id\ttype\na1\tauthor\n", "from\tto\tlabel\na1\ta1\tcites\n")
	f.Add("", "")
	f.Add("id,type\na1,author\n", "from,to,label\na1,zz,cites\n")
	f.Fuzz(func(t *testing.T, ns, es string) {
		ds, err := edgelist.Parse(strings.NewReader(ns), strings.NewReader(es), edgelist.Options{})
		if err != nil {
			return
		}
		// Anything accepted must at least prepare without error: the
		// inferred schema, spec and data have to agree with each other.
		if _, err := tss.Prepare(ds.Schema, ds.Spec, ds.Data); err != nil {
			t.Fatalf("accepted dump does not prepare: %v", err)
		}
	})
}
