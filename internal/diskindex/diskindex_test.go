package diskindex_test

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/diskindex"
	"repro/internal/kwindex"
)

// writeIndex serializes ix to a temp .xki file and returns its path.
func writeIndex(t *testing.T, ix *kwindex.Index) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "index.xki")
	if err := diskindex.Create(path, ix); err != nil {
		t.Fatal(err)
	}
	return path
}

func openIndex(t *testing.T, path string, opts diskindex.Options) *diskindex.Reader {
	t.Helper()
	rd, err := diskindex.Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rd.Close() })
	return rd
}

func fig1Index(t *testing.T) *kwindex.Index {
	t.Helper()
	ds, err := datagen.TPCHFigure1()
	if err != nil {
		t.Fatal(err)
	}
	return kwindex.Build(ds.Obj)
}

// requireEquivalent checks that the reader answers every lookup exactly
// like the in-memory index it was written from.
func requireEquivalent(t *testing.T, ix *kwindex.Index, rd *diskindex.Reader) {
	t.Helper()
	if rd.NumKeywords() != ix.NumKeywords() || rd.NumPostings() != ix.NumPostings() {
		t.Fatalf("counts: disk %d/%d, memory %d/%d",
			rd.NumKeywords(), rd.NumPostings(), ix.NumKeywords(), ix.NumPostings())
	}
	if !reflect.DeepEqual(rd.Terms(), ix.Terms()) {
		t.Fatal("term dictionaries differ")
	}
	for _, term := range ix.Terms() {
		want := ix.ContainingList(term)
		got := rd.ContainingList(term)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ContainingList(%q): disk %+v, memory %+v", term, got, want)
		}
		if sn := rd.SchemaNodes(term); !reflect.DeepEqual(sn, ix.SchemaNodes(term)) {
			t.Fatalf("SchemaNodes(%q) differ", term)
		}
		for _, node := range ix.SchemaNodes(term) {
			if !reflect.DeepEqual(rd.TOSet(term, node), ix.TOSet(term, node)) {
				t.Fatalf("TOSet(%q, %q) differs", term, node)
			}
		}
	}
	if err := rd.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTrip(t *testing.T) {
	ix := fig1Index(t)
	rd := openIndex(t, writeIndex(t, ix), diskindex.Options{})
	requireEquivalent(t, ix, rd)

	// Tokenized lookups go through the same path as the in-memory index.
	if got, want := rd.ContainingList("DVD error"), ix.ContainingList("DVD error"); !reflect.DeepEqual(got, want) {
		t.Fatalf("multi-token lookup: %+v vs %+v", got, want)
	}
	if rd.ContainingList("") != nil || rd.ContainingList("nosuchtoken") != nil {
		t.Fatal("empty/unknown keyword returned postings")
	}
}

// TestCreateTemp: the temporary index answers like the in-memory one,
// and its file is gone from the directory while the reader serves it.
func TestCreateTemp(t *testing.T) {
	ix := fig1Index(t)
	rd, err := diskindex.CreateTemp(ix, diskindex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if _, err := os.Stat(rd.Path()); !os.IsNotExist(err) {
		t.Fatalf("temporary index %s still linked: %v", rd.Path(), err)
	}
	requireEquivalent(t, ix, rd)
}

// TestRoundTripTinyPool replays every lookup through a buffer pool of a
// single page — far smaller than the posting region — to exercise
// eviction and page-spanning reads.
func TestRoundTripTinyPool(t *testing.T) {
	ix := fig1Index(t)
	path := writeIndex(t, ix)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	opts := diskindex.Options{CacheBytes: 64, PageSize: 64, ListCacheBytes: -1}
	if st.Size() <= 64 {
		t.Fatalf("test premise broken: index file only %d bytes", st.Size())
	}
	rd := openIndex(t, path, opts)
	requireEquivalent(t, ix, rd)
	stats := rd.Stats()
	if stats.PageMisses == 0 {
		t.Fatal("tiny pool recorded no misses")
	}
	if stats.PagesResident > 1 {
		t.Fatalf("pool holds %d pages, budget allows 1", stats.PagesResident)
	}
}

// TestDBLPEquivalence is the datagen workload round trip: the synthetic
// DBLP database's master index served from disk answers every term
// exactly like the in-memory index.
func TestDBLPEquivalence(t *testing.T) {
	ds, err := datagen.DBLP(datagen.DefaultDBLPParams())
	if err != nil {
		t.Fatal(err)
	}
	ix := kwindex.Build(ds.Obj)
	rd := openIndex(t, writeIndex(t, ix), diskindex.Options{CacheBytes: 4096})
	requireEquivalent(t, ix, rd)
}

// TestQueryEquivalence runs full keyword queries through a system whose
// master index was swapped for the disk reader and compares the ranked
// results with the in-memory run.
func TestQueryEquivalence(t *testing.T) {
	ds, err := datagen.TPCHFigure1()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.LoadPrepared(ds,
		core.Options{Z: 8})
	if err != nil {
		t.Fatal(err)
	}
	ix := sys.Index.(*kwindex.Index)
	queries := [][]string{{"john", "vcr"}, {"us", "vcr"}, {"tv", "vcr"}}
	var want [][]string
	for _, q := range queries {
		rs, err := sys.QueryAll(q)
		if err != nil {
			t.Fatal(err)
		}
		var keys []string
		for _, r := range rs {
			keys = append(keys, r.Key())
		}
		want = append(want, keys)
	}

	sys.Index = openIndex(t, writeIndex(t, ix), diskindex.Options{CacheBytes: 4096})
	for i, q := range queries {
		rs, err := sys.QueryAll(q)
		if err != nil {
			t.Fatal(err)
		}
		var keys []string
		for _, r := range rs {
			keys = append(keys, r.Key())
		}
		if !reflect.DeepEqual(keys, want[i]) {
			t.Fatalf("query %v: disk results %v, memory results %v", q, keys, want[i])
		}
	}
}

// TestConcurrentReaders hammers one reader from many goroutines (run
// under -race by make race) and checks every answer.
func TestConcurrentReaders(t *testing.T) {
	ix := fig1Index(t)
	// One-page pool maximizes eviction races.
	rd := openIndex(t, writeIndex(t, ix), diskindex.Options{CacheBytes: 64, PageSize: 64, ListCacheBytes: 512})
	terms := ix.Terms()
	want := make(map[string][]kwindex.Posting, len(terms))
	for _, term := range terms {
		want[term] = ix.ContainingList(term)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				term := terms[(g*53+round*17)%len(terms)]
				if got := rd.ContainingList(term); !reflect.DeepEqual(got, want[term]) {
					select {
					case errs <- term:
					default:
					}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if term, bad := <-errs; bad {
		t.Fatalf("concurrent lookup of %q returned wrong postings", term)
	}
	if err := rd.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestStatsWarmup(t *testing.T) {
	ix := fig1Index(t)
	rd := openIndex(t, writeIndex(t, ix), diskindex.Options{})
	term := ix.Terms()[0]
	rd.ContainingList(term)
	cold := rd.Stats()
	if cold.PageMisses == 0 || cold.BytesRead == 0 {
		t.Fatalf("cold lookup read nothing: %+v", cold)
	}
	rd.ContainingList(term)
	warm := rd.Stats()
	if warm.ListHits == 0 && warm.PageHits == cold.PageHits {
		t.Fatalf("warm lookup hit no cache: %+v", warm)
	}
	if warm.BytesRead != cold.BytesRead {
		t.Fatalf("warm lookup touched disk: %d -> %d bytes", cold.BytesRead, warm.BytesRead)
	}
}

func TestOpenRejectsTruncation(t *testing.T) {
	ix := fig1Index(t)
	path := writeIndex(t, ix)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 40, 87, 88, len(data) / 2, len(data) - 1} {
		p := filepath.Join(t.TempDir(), "trunc.xki")
		if err := os.WriteFile(p, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := diskindex.Open(p, diskindex.Options{}); err == nil {
			t.Errorf("file truncated to %d bytes accepted", n)
		}
	}
}

func TestOpenRejectsCorruption(t *testing.T) {
	ix := fig1Index(t)
	path := writeIndex(t, ix)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the magic, version, section offsets, meta CRC and
	// the metadata region itself; every mutation must be rejected.
	for _, off := range []int{0, 4, 32, 64, 80, 84, len(data) - 1} {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0xFF
		p := filepath.Join(t.TempDir(), "corrupt.xki")
		if err := os.WriteFile(p, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := diskindex.Open(p, diskindex.Options{}); err == nil {
			t.Errorf("byte %d corrupted but file accepted", off)
		}
	}
}

func TestOpenMissingFile(t *testing.T) {
	if _, err := diskindex.Open(filepath.Join(t.TempDir(), "absent.xki"), diskindex.Options{}); err == nil {
		t.Fatal("missing file accepted")
	}
}

// FuzzReaderOpen throws mutated index files at Open and, when a file is
// accepted, at the lookup path; neither may panic, and accepted files
// must answer lookups without corrupting memory.
func FuzzReaderOpen(f *testing.F) {
	ds, err := datagen.TPCHFigure1()
	if err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	valid := filepath.Join(dir, "seed.xki")
	if err := diskindex.Create(valid, kwindex.Build(ds.Obj)); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(valid)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:88])
	f.Add(data[:len(data)/2])
	f.Add([]byte{})
	f.Add([]byte("XKI1 but far too short"))
	mut := append([]byte(nil), data...)
	mut[100] ^= 0xA5
	f.Add(mut)

	f.Fuzz(func(t *testing.T, b []byte) {
		p := filepath.Join(t.TempDir(), "fuzz.xki")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Skip()
		}
		rd, err := diskindex.Open(p, diskindex.Options{CacheBytes: 4096})
		if err != nil {
			return
		}
		defer rd.Close()
		for _, term := range rd.Terms() {
			rd.ContainingList(term)
			rd.SchemaNodes(term)
		}
		rd.ContainingList("probe")
		rd.TOSet("probe", "")
		rd.Stats()
	})
}

// failOnceAfterOpen fails the first ReadAt issued once armed is set.
type failOnceAfterOpen struct {
	io.ReaderAt
	armed, fired atomic.Bool
}

func (f *failOnceAfterOpen) ReadAt(p []byte, off int64) (int, error) {
	if f.armed.Load() && f.fired.CompareAndSwap(false, true) {
		return 0, errors.New("injected transient read error")
	}
	return f.ReaderAt.ReadAt(p, off)
}

// TestZeroRetryMeansDefault: a zero Options.Retry is fault.DefaultRetry,
// so one transient page-read error after Open is absorbed by a retry
// instead of failing the reader for good.
func TestZeroRetryMeansDefault(t *testing.T) {
	ix := fig1Index(t)
	var inj *failOnceAfterOpen
	rd := openIndex(t, writeIndex(t, ix), diskindex.Options{WrapReaderAt: func(r io.ReaderAt) io.ReaderAt {
		inj = &failOnceAfterOpen{ReaderAt: r}
		return inj
	}})
	inj.armed.Store(true)
	requireEquivalent(t, ix, rd)
	if !inj.fired.Load() {
		t.Fatal("the injected read error never fired")
	}
	if got := rd.Stats().RetriedReads; got != 1 {
		t.Fatalf("RetriedReads = %d, want 1", got)
	}
}
