package main

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dtd"
	"repro/internal/edgelist"
	"repro/internal/schema"
	"repro/internal/specfile"
	"repro/internal/tss"
	"repro/internal/xmlgraph"
)

// writeFile writes content to name under dir and returns the path.
func writeFile(t *testing.T, dir, name string, content []byte) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// topK is the number of results sys returns for kws at k.
func topK(t *testing.T, sys *core.System, kws []string, k int) int {
	t.Helper()
	rs, _, err := sys.QueryScoredContext(context.Background(), kws, k, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Fatalf("%v: no results in the reference system, nothing is compared", kws)
	}
	return len(rs)
}

// countsMatch runs the binary with args and each query, and requires
// its result count to equal ref's top k.
func countsMatch(t *testing.T, ref *core.System, args []string, k int, queries ...[]string) string {
	t.Helper()
	var stderr string
	for _, kws := range queries {
		want := topK(t, ref, kws, k)
		out, errOut, code := run(t, "", append(append(args, "-k", strconv.Itoa(k)), kws...)...)
		if code != 0 {
			t.Fatalf("%v %v: exit %d\n%s", args, kws, code, errOut)
		}
		if got := count(t, out, "results in"); got != want {
			t.Fatalf("%v %v: xkeyword printed %d results, core %d", args, kws, got, want)
		}
		stderr = errOut
	}
	return stderr
}

func loadSource(t *testing.T, sg *schema.Graph, spec tss.Spec, data *xmlgraph.Graph) *core.System {
	t.Helper()
	sys, err := core.Load(sg, spec, data, core.Options{Z: 8, Decomposition: core.PresetXKeyword})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestEdgeListCountsMatchCore: -nodes/-edges load a generic edge-list
// source.
func TestEdgeListCountsMatchCore(t *testing.T) {
	nb, eb, err := datagen.CitationCSV(datagen.DefaultCitationParams())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	nodes := writeFile(t, dir, "cite.nodes.csv", nb)
	edges := writeFile(t, dir, "cite.edges.csv", eb)
	ds, err := edgelist.Open(nodes, edges, edgelist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	countsMatch(t, loadSource(t, ds.Schema, ds.Spec, ds.Data), []string{"-nodes", nodes, "-edges", edges}, 5,
		[]string{"alice", "icde"}, []string{"alice"})
}

// The Figure 5 schema as a DTD and its Figure 6 spec, as the dtd and
// specfile packages test them, and a document that conforms to both.
const (
	tpchDTD = `
<!ELEMENT person (name, nation, order*)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT nation (#PCDATA)>
<!ELEMENT order (lineitem*)>
<!ELEMENT lineitem (quantity, ship, supplier, line)>
<!ELEMENT quantity (#PCDATA)>
<!ELEMENT ship (#PCDATA)>
<!ELEMENT supplier EMPTY>
<!ATTLIST supplier ref IDREF #REQUIRED>
<!ELEMENT line (part | product)>
<!ATTLIST line ref IDREF #IMPLIED>
<!ELEMENT part (key, pname, sub*)>
<!ATTLIST part id ID #REQUIRED>
<!ELEMENT key (#PCDATA)>
<!ELEMENT pname (#PCDATA)>
<!ELEMENT sub (part)>
<!ELEMENT product (prodkey, pdescr)>
<!ELEMENT prodkey (#PCDATA)>
<!ELEMENT pdescr (#PCDATA)>
<!ELEMENT service_call (scdescr)>
<!ATTLIST service_call ref IDREF #REQUIRED>
<!ELEMENT scdescr (#PCDATA)>
`
	tpchSpec = `
segment person head=person members=name,nation
segment order head=order
segment lineitem head=lineitem members=quantity,ship
segment part head=part members=key,pname
segment product head=product members=prodkey,pdescr
segment service_call head=service_call members=scdescr

annotate person>order forward="placed" backward="placed by"
annotate lineitem>supplier>person forward="supplied by" backward="supplier of"

reftarget supplier person
reftarget line part
reftarget service_call person
root person
root part
root service_call
`
	tpchDoc = `
<db>
 <person><name>John</name><nation>US</nation>
  <order><lineitem><quantity>1</quantity><ship>now</ship>
   <supplier ref="p1"/><line ref="pa1"/></lineitem></order>
 </person>
 <person id="p1"><name>Mike</name><nation>US</nation></person>
 <part id="pa1"><key>1</key><pname>TV</pname></part>
</db>`
)

// TestDTDSpecCountsMatchCore: -dtd with -spec and -in load a schema the
// binary does not know.
func TestDTDSpecCountsMatchCore(t *testing.T) {
	dir := t.TempDir()
	dtdPath := writeFile(t, dir, "tpch.dtd", []byte(tpchDTD))
	specPath := writeFile(t, dir, "tpch.spec", []byte(tpchSpec))
	docPath := writeFile(t, dir, "tpch.xml", []byte(tpchDoc))

	cfg, err := specfile.ParseString(tpchSpec)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := dtd.ParseString(tpchDTD, dtd.Options{RefTargets: cfg.RefTargets, Roots: cfg.Roots})
	if err != nil {
		t.Fatal(err)
	}
	data, err := xmlgraph.ParseString(tpchDoc, xmlgraph.ParseOptions{OmitRoot: true})
	if err != nil {
		t.Fatal(err)
	}
	ref := loadSource(t, sg, cfg.Spec, data)
	countsMatch(t, ref, []string{"-dtd", dtdPath, "-spec", specPath, "-in", docPath}, 10,
		[]string{"john", "tv"}, []string{"mike", "us"})
}

// TestDiskIndexCountsMatchCore: -disk-index pages the index it built
// from disk, through a temporary file or, with -save, through the
// snapshot's sidecar; either way the counts are the in-memory system's.
func TestDiskIndexCountsMatchCore(t *testing.T) {
	ds, err := datagen.TPCH(datagen.DefaultTPCHParams())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.LoadPrepared(ds, core.Options{Z: 8, Decomposition: core.PresetXKeyword})
	if err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(t.TempDir(), "tpch.xkdb")
	for _, args := range [][]string{
		{"-schema", "tpch", "-disk-index"},
		{"-schema", "tpch", "-disk-index", "-save", snap},
	} {
		stderr := countsMatch(t, ref, args, 7, []string{"us", "vcr"})
		if !strings.Contains(stderr, "master index on disk") {
			t.Fatalf("%v: no disk-index line on stderr:\n%s", args, stderr)
		}
	}
	for _, p := range []string{snap, snap + ".xki"} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("-save wrote no %s: %v", p, err)
		}
	}
}

// TestInputErrorsExitNonZero: inputs the loader rejects exit non-zero
// with a message.
func TestInputErrorsExitNonZero(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-schema", "nosuch", "us"}, `unknown schema "nosuch"`},
		{[]string{"-nodes", "x.nodes.csv", "us"}, "-nodes and -edges must be given together"},
		{[]string{"-dtd", "x.dtd", "-in", "x.xml", "us"}, "-dtd/-xsd require -spec"},
	} {
		_, stderr, code := run(t, "", tc.args...)
		if code == 0 {
			t.Fatalf("%v: exit 0\n%s", tc.args, stderr)
		}
		if !strings.Contains(stderr, tc.want) {
			t.Fatalf("%v: stderr does not say %q:\n%s", tc.args, tc.want, stderr)
		}
	}
}

// TestFlagsGolden pins the command's settable values: the -h listing
// must equal testdata/flags.golden (its first line, which names the
// binary's path, aside).
func TestFlagsGolden(t *testing.T) {
	out, err := exec.Command(binary(t), "-h").CombinedOutput()
	if err != nil {
		t.Fatalf("-h: %v\n%s", err, out)
	}
	_, got, _ := strings.Cut(string(out), "\n")
	want, err := os.ReadFile(filepath.Join("testdata", "flags.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("-h drifted from testdata/flags.golden\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
