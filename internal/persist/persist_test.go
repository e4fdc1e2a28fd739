package persist_test

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/diskindex"
	"repro/internal/persist"
)

func loadFig1(t testing.TB) *core.System {
	t.Helper()
	ds, err := datagen.TPCHFigure1()
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.LoadPrepared(ds,
		core.Options{Z: 8})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRoundTrip(t *testing.T) {
	orig := loadFig1(t)
	var buf bytes.Buffer
	if err := persist.Save(&buf, orig, datagen.TPCHSpec()); err != nil {
		t.Fatal(err)
	}
	restored, err := persist.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Structural equality.
	if restored.Data.NumNodes() != orig.Data.NumNodes() || restored.Data.NumEdges() != orig.Data.NumEdges() {
		t.Fatal("data graph size changed")
	}
	if len(restored.Decomp.Fragments) != len(orig.Decomp.Fragments) {
		t.Fatalf("fragments: %d -> %d", len(orig.Decomp.Fragments), len(restored.Decomp.Fragments))
	}
	if restored.Store.TotalRows() != orig.Store.TotalRows() {
		t.Fatalf("rows: %d -> %d", orig.Store.TotalRows(), restored.Store.TotalRows())
	}
	if restored.M != orig.M {
		t.Fatalf("M: %d -> %d", orig.M, restored.M)
	}

	// Query equality, for several queries and both top-k and all modes.
	for _, q := range [][]string{{"john", "vcr"}, {"us", "vcr"}, {"tv", "vcr"}} {
		a, err := orig.QueryAll(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := restored.QueryAll(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("%v: %d results before, %d after", q, len(a), len(b))
		}
		for i := range a {
			if a[i].Key() != b[i].Key() {
				t.Fatalf("%v: result %d differs", q, i)
			}
		}
	}

	// Rendering still works (object graph and annotations intact).
	rs, err := restored.QueryAll([]string{"john", "vcr"})
	if err != nil || len(rs) == 0 {
		t.Fatalf("query after restore: %v, %d", err, len(rs))
	}
	if out := restored.RenderResult(rs[0]); out == "" {
		t.Fatal("empty rendering")
	}
}

func TestSaveLoadFile(t *testing.T) {
	orig := loadFig1(t)
	path := filepath.Join(t.TempDir(), "fig1.xkdb")
	if err := persist.SaveFile(path, orig, datagen.TPCHSpec()); err != nil {
		t.Fatal(err)
	}
	restored, err := persist.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Obj.NumObjects() != orig.Obj.NumObjects() {
		t.Fatal("object count changed")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := persist.Load(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := persist.LoadFile("/nonexistent/path"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestVersionCheck(t *testing.T) {
	orig := loadFig1(t)
	var buf bytes.Buffer
	if err := persist.Save(&buf, orig, datagen.TPCHSpec()); err != nil {
		t.Fatal(err)
	}
	// Corrupt: truncated stream.
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := persist.Load(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}

func TestVersionMismatchError(t *testing.T) {
	// gob matches fields by name, so a stream holding only a future
	// Version decodes into the snapshot struct and must be rejected with
	// a message telling the operator to regenerate the snapshot.
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&struct{ Version int }{Version: 99}); err != nil {
		t.Fatal(err)
	}
	_, err := persist.Load(&buf)
	if err == nil {
		t.Fatal("version-99 snapshot accepted")
	}
	for _, want := range []string{"version 99", "re-run the load stage"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}

func TestSidecarDiskIndex(t *testing.T) {
	orig := loadFig1(t)
	path := filepath.Join(t.TempDir(), "fig1.xkdb")
	if err := persist.SaveFile(path, orig, datagen.TPCHSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(persist.SidecarPath(path)); err != nil {
		t.Fatalf("sidecar not written: %v", err)
	}
	restored, err := persist.LoadFileOpts(path, persist.LoadOptions{DiskIndex: true, IndexCacheBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	rd, ok := restored.Index.(*diskindex.Reader)
	if !ok {
		t.Fatalf("index is %T, want *diskindex.Reader", restored.Index)
	}
	defer rd.Close()
	if rd.NumKeywords() == 0 {
		t.Fatal("disk index is empty")
	}
	for _, q := range [][]string{{"john", "vcr"}, {"tv", "vcr"}} {
		a, err := orig.QueryAll(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := restored.QueryAll(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("%v: %d results in memory, %d from disk index", q, len(a), len(b))
		}
		for i := range a {
			if a[i].Key() != b[i].Key() {
				t.Fatalf("%v: result %d differs", q, i)
			}
		}
	}
}

func TestLoadOptsMissingSidecar(t *testing.T) {
	orig := loadFig1(t)
	path := filepath.Join(t.TempDir(), "fig1.xkdb")
	if err := persist.SaveFile(path, orig, datagen.TPCHSpec()); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(persist.SidecarPath(path)); err != nil {
		t.Fatal(err)
	}
	if _, err := persist.LoadFileOpts(path, persist.LoadOptions{DiskIndex: true}); err == nil {
		t.Fatal("missing sidecar accepted")
	}
	// Without DiskIndex the snapshot alone is enough.
	if _, err := persist.LoadFile(path); err != nil {
		t.Fatal(err)
	}
}

// A snapshot's options are checked when it is loaded, not first when a
// query runs with them: an unknown scorer used to load and then panic
// in the ranker.
func TestLoadRejectsInvalidOptions(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*core.Options)
		want string
	}{
		{"scorer", func(o *core.Options) { o.Scorer = "bogus" }, `"bogus"`},
		{"negative Z", func(o *core.Options) { o.Z = -1 }, "Z=-1"},
		{"negative B", func(o *core.Options) { o.B = -1 }, "B=-1"},
		{"negative MaxKeywords", func(o *core.Options) { o.MaxKeywords = -1 }, "MaxKeywords=-1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := loadFig1(t)
			tc.edit(&sys.Opts)
			var buf bytes.Buffer
			if err := persist.Save(&buf, sys, datagen.TPCHSpec()); err != nil {
				t.Fatal(err)
			}
			_, err := persist.Load(&buf)
			if err == nil {
				t.Fatal("snapshot with invalid options loaded")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %s", err, tc.want)
			}
		})
	}
}
