package segidx_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/segidx"
)

func personDoc(to int64, node int64, name string) segidx.Document {
	return doc(to,
		field(node, "person", "person", ""),
		field(node+1, "name", "name", name),
		field(node+2, "nation", "nation", "US"),
	)
}

// TestSummaryLifecycle follows one ingested TO's presentation summary
// through every index layer: memtable, sealed segment (flush),
// compaction, replacement (newest wins), tombstone, and recovery from a
// reopened directory. Runtime-ingested TOs must present like
// batch-loaded ones at every stage — never as placeholders.
func TestSummaryLifecycle(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, segidx.Options{})

	mustAdd(t, s, personDoc(100, 10, "Anna"))
	const want = "person[name=Anna nation=US]"
	if sum, ok := s.Summary(100); !ok || sum != want {
		t.Fatalf("memtable summary = %q, %v; want %q", sum, ok, want)
	}

	// Through a flush: the summary now lives in the segment meta.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if sum, ok := s.Summary(100); !ok || sum != want {
		t.Fatalf("post-flush summary = %q, %v; want %q", sum, ok, want)
	}

	// Replacement: newest layer wins over the flushed segment.
	mustAdd(t, s, personDoc(100, 10, "Maria"))
	const want2 = "person[name=Maria nation=US]"
	if sum, ok := s.Summary(100); !ok || sum != want2 {
		t.Fatalf("replaced summary = %q, %v; want %q", sum, ok, want2)
	}

	// Through a second flush and a compaction: both segments merge and
	// the newest version's summary survives.
	mustAdd(t, s, personDoc(200, 20, "Wei"))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if sum, ok := s.Summary(100); !ok || sum != want2 {
		t.Fatalf("post-compaction summary = %q, %v; want %q", sum, ok, want2)
	}
	if sum, ok := s.Summary(200); !ok || sum != "person[name=Wei nation=US]" {
		t.Fatalf("post-compaction summary of TO 200 = %q, %v", sum, ok)
	}

	// Tombstones hide the summary at every layer.
	mustDelete(t, s, 100)
	if sum, ok := s.Summary(100); ok {
		t.Fatalf("deleted TO still presents summary %q", sum)
	}

	// Recovery: a reopened store serves the same summaries from disk
	// (WAL replay for the unflushed delete, segment meta for the rest).
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openStore(t, dir, segidx.Options{})
	if sum, ok := r.Summary(200); !ok || sum != "person[name=Wei nation=US]" {
		t.Fatalf("reopened summary of TO 200 = %q, %v", sum, ok)
	}
	if sum, ok := r.Summary(100); ok {
		t.Fatalf("reopened store resurrected deleted TO's summary %q", sum)
	}
	if _, ok := r.Summary(999); ok {
		t.Fatal("summary claimed for a TO the store never saw")
	}
}

// TestSummaryAllocs: resolving a summary allocates nothing, whether the
// active memtable, a committed segment or no layer answers. A served
// query resolves every result TO's summary this way, twice.
func TestSummaryAllocs(t *testing.T) {
	s := openStore(t, t.TempDir(), segidx.Options{NoSync: true})
	mustAdd(t, s, personDoc(100, 10, "Anna"))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, s, personDoc(200, 20, "Wei"))
	for _, c := range []struct {
		name string
		to   int64
		want string
	}{
		{"memtable hit", 200, "person[name=Wei nation=US]"},
		{"segment hit", 100, "person[name=Anna nation=US]"},
		{"miss", 300, ""},
	} {
		if sum, ok := s.Summary(c.to); sum != c.want || ok != (c.want != "") {
			t.Fatalf("%s: Summary(%d) = %q, %v; want %q", c.name, c.to, sum, ok, c.want)
		}
		if n := testing.AllocsPerRun(100, func() { s.Summary(c.to) }); n != 0 {
			t.Errorf("%s: %v allocs per Summary, want 0", c.name, n)
		}
	}
}

// TestSummaryShapes pins the presentation forms: valueless documents
// fall back to label#TO and empty ones to TO#id, mirroring how the
// object graph presents batch-loaded target objects.
func TestSummaryShapes(t *testing.T) {
	d := doc(7, field(1, "part", "part", ""))
	if got := d.Summary(); got != "part#7" {
		t.Errorf("valueless doc summary = %q, want part#7", got)
	}
	e := doc(8)
	if got := e.Summary(); got != "TO#8" {
		t.Errorf("empty doc summary = %q, want TO#8", got)
	}
	// Head value leads without a label= prefix.
	h := doc(9, field(1, "name", "name", "TV"), field(2, "key", "key", "1005"))
	if got := h.Summary(); got != "name[TV key=1005]" {
		t.Errorf("headed doc summary = %q, want name[TV key=1005]", got)
	}
}

// TestIngestedSummaryOverridesMemo: core.System memoises the object
// graph's summary of each target object, but an ingested document whose
// TO also exists in the object graph must still present as ingested —
// whether it arrives before or after that TO's object-graph summary was
// memoised — and a tombstone must fall back to the object graph again.
func TestIngestedSummaryOverridesMemo(t *testing.T) {
	ds, err := datagen.TPCHFigure1()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.LoadPrepared(&core.Prepared{Schema: ds.Schema, TSS: ds.TSS, Data: ds.Data, Obj: ds.Obj},
		core.Options{Z: 8})
	if err != nil {
		t.Fatal(err)
	}
	s := openStore(t, t.TempDir(), segidx.Options{Base: sys.Index, NoSync: true})
	sys.Index = s
	rs, err := sys.Query([]string{"john", "vcr"}, 1)
	if err != nil || len(rs) != 1 || len(rs[0].Bind) < 2 {
		t.Fatalf("query: %v, %d results", err, len(rs))
	}
	res := rs[0]
	before, after := res.Bind[0], res.Bind[1]
	renders := func(want string) {
		t.Helper()
		if out := sys.RenderResult(res); !strings.Contains(out, want) {
			t.Fatalf("render lacks %q:\n%s", want, out)
		}
	}

	// Ingested before anything memoised the object-graph summary.
	d := doc(before, field(before, "ingested", "ingested", "Before"))
	mustAdd(t, s, d)
	if got := sys.SummaryOf(before); got != d.Summary() {
		t.Fatalf("SummaryOf(%d) = %q, want the ingested %q", before, got, d.Summary())
	}
	renders(d.Summary())

	// Ingested after the object-graph summary was memoised.
	native := ds.Obj.Summary(after)
	if got := sys.SummaryOf(after); got != native {
		t.Fatalf("SummaryOf(%d) = %q, want %q", after, got, native)
	}
	renders(native)
	d = doc(after, field(after, "ingested", "ingested", "After"))
	mustAdd(t, s, d)
	if got := sys.SummaryOf(after); got != d.Summary() {
		t.Fatalf("SummaryOf(%d) after ingest = %q, want the ingested %q", after, got, d.Summary())
	}
	renders(d.Summary())

	// A tombstone leaves the store without an opinion: the memo answers.
	mustDelete(t, s, after)
	if got := sys.SummaryOf(after); got != native {
		t.Fatalf("SummaryOf(%d) after delete = %q, want %q", after, got, native)
	}
	renders(native)
}
