package shard_test

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/kwindex"
	"repro/internal/shard"
	"repro/internal/xmlgraph"
)

func fig1Index(t testing.TB) *kwindex.Index {
	t.Helper()
	ds, err := datagen.TPCHFigure1()
	if err != nil {
		t.Fatal(err)
	}
	return kwindex.Build(ds.Obj)
}

func TestPartitionDeterministicAndInRange(t *testing.T) {
	for n := 1; n <= 9; n++ {
		for to := int64(-5); to < 2000; to++ {
			p := shard.Partition(to, n)
			if p < 0 || p >= n {
				t.Fatalf("Partition(%d, %d) = %d out of range", to, n, p)
			}
			if p != shard.Partition(to, n) {
				t.Fatalf("Partition(%d, %d) not deterministic", to, n)
			}
		}
	}
	if got := shard.Partition(42, 1); got != 0 {
		t.Fatalf("Partition(_, 1) = %d, want 0", got)
	}
	if got := shard.Partition(42, 0); got != 0 {
		t.Fatalf("Partition(_, 0) = %d, want 0", got)
	}
}

// Sequential TO ids — the realistic shape — must spread evenly: the mix
// step exists precisely so partition i does not become "TOs ≡ i mod n".
func TestPartitionDistribution(t *testing.T) {
	const n, tos = 7, 70000
	counts := make([]int, n)
	for to := int64(0); to < tos; to++ {
		counts[shard.Partition(to, n)]++
	}
	want := tos / n
	for p, c := range counts {
		if c < want*8/10 || c > want*12/10 {
			t.Fatalf("partition %d holds %d of %d postings (expected ~%d ±20%%): skewed hash", p, c, tos, want)
		}
	}
}

// Partitions must be disjoint and exhaustive: every posting of the
// master index lands in exactly Partition(TO, n).
func TestPartitionIndexDisjointExhaustive(t *testing.T) {
	ix := fig1Index(t)
	const n = 3
	parts := make([]*kwindex.Index, n)
	for p := 0; p < n; p++ {
		parts[p] = shard.PartitionIndex(ix, p, n)
	}
	total := 0
	for p, pix := range parts {
		total += pix.NumPostings()
		for _, term := range pix.Terms() {
			for _, post := range pix.Postings(term) {
				if shard.Partition(post.TO, n) != p {
					t.Fatalf("partition %d holds TO %d which routes to %d", p, post.TO, shard.Partition(post.TO, n))
				}
			}
		}
	}
	if total != ix.NumPostings() {
		t.Fatalf("partitions hold %d postings, master %d: not exhaustive", total, ix.NumPostings())
	}
	// The union of every term's slices, in (TO, node) order, must
	// reproduce the master's list.
	for _, term := range ix.Terms() {
		var got []kwindex.Posting
		for _, pix := range parts {
			got = append(got, pix.Postings(term)...)
		}
		sort.Slice(got, func(i, j int) bool {
			if got[i].TO != got[j].TO {
				return got[i].TO < got[j].TO
			}
			return got[i].Node < got[j].Node
		})
		if want := ix.ContainingList(term); !reflect.DeepEqual(got, want) {
			t.Fatalf("term %q: partitions' union differs from master list:\ngot  %v\nwant %v", term, got, want)
		}
	}
}

func TestWireListsRoundTrip(t *testing.T) {
	lists := map[string][]kwindex.Posting{
		"tv": {
			{TO: 7, Node: xmlgraph.NodeID(70), SchemaNode: "part"},
			{TO: 8, Node: xmlgraph.NodeID(81), SchemaNode: "part"},
			{TO: 9, Node: xmlgraph.NodeID(90), SchemaNode: "descr"},
		},
		"john": {{TO: 1, Node: xmlgraph.NodeID(2), SchemaNode: "name"}},
		"none": nil,
	}
	wire := shard.EncodeLists(lists)
	back, ok := shard.DecodeLists(wire)
	if !ok {
		t.Fatal("DecodeLists rejected its own encoding")
	}
	for k, want := range lists {
		if got := back[k]; len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("list %q did not round-trip:\ngot  %v\nwant %v", k, got, want)
		}
	}
}

func TestDecodeListsRejectsMalformed(t *testing.T) {
	wire := map[string]shard.WireList{
		"x": {Schemas: []string{"a"}, Posts: [][3]int64{{1, 2, 5}}}, // index 5 out of range
	}
	if _, ok := shard.DecodeLists(wire); ok {
		t.Fatal("DecodeLists accepted an out-of-range schema index")
	}
	wire["x"] = shard.WireList{Schemas: []string{"a"}, Posts: [][3]int64{{1, 2, -1}}}
	if _, ok := shard.DecodeLists(wire); ok {
		t.Fatal("DecodeLists accepted a negative schema index")
	}
}

func TestNormKeyword(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"TV", "tv"},
		{"  John! ", "john"},
		{"set of VCR", "set of VCR"}, // multi-token phrases stay raw
		{"!!!", ""},
	} {
		if got := shard.NormKeyword(tc.in); got != tc.want {
			t.Errorf("NormKeyword(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func res(score, plan, seq int) exec.Result {
	return exec.Result{Score: score, Ord: exec.MakeOrd(plan, seq)}
}

func TestMergeTopK(t *testing.T) {
	s1 := []exec.Result{res(1, 0, 0), res(2, 1, 1), res(3, 2, 0)}
	s2 := []exec.Result{res(1, 0, 1), res(2, 1, 0)}
	got := shard.MergeTopK([][]exec.Result{s1, s2}, 3)
	want := []exec.Result{res(1, 0, 0), res(1, 0, 1), res(2, 1, 0)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("MergeTopK = %v, want %v", got, want)
	}
	// k ≤ 0 merges everything.
	if got := shard.MergeTopK([][]exec.Result{s1, s2}, 0); len(got) != 5 {
		t.Fatalf("MergeTopK(k=0) returned %d results, want 5", len(got))
	}
	// Duplicate Ords (overlapping covers) collapse to one.
	dup := shard.MergeTopK([][]exec.Result{{res(1, 0, 0)}, {res(1, 0, 0)}}, 0)
	if len(dup) != 1 {
		t.Fatalf("MergeTopK kept %d copies of a duplicated Ord, want 1", len(dup))
	}
	if got := shard.MergeTopK(nil, 5); len(got) != 0 {
		t.Fatalf("MergeTopK(nil) = %v, want empty", got)
	}
}

// MergeTopK against a brute-force sort over the concatenation, with
// per-stream ascending order as the coordinator guarantees it.
func TestMergeTopKMatchesSort(t *testing.T) {
	streams := [][]exec.Result{
		{res(1, 0, 0), res(1, 0, 2), res(4, 3, 1)},
		{res(1, 0, 1), res(2, 2, 0), res(2, 2, 5), res(9, 4, 0)},
		{},
		{res(3, 2, 7)},
	}
	var all []exec.Result
	for _, s := range streams {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return exec.OrdLess(all[i], all[j]) })
	for k := 1; k <= len(all)+1; k++ {
		want := all
		if k < len(all) {
			want = all[:k]
		}
		if got := shard.MergeTopK(streams, k); !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: MergeTopK = %v, want %v", k, got, want)
		}
	}
}

func TestManifestRoundTripAndCorruption(t *testing.T) {
	dir := t.TempDir()
	m := &shard.Manifest{
		Version: 1,
		Scheme:  shard.HashScheme,
		N:       2,
		Shards: []shard.ShardInfo{
			{ID: 0, Dir: "shard-000", Index: "index.xki", CRC: 0xdeadbeef, Postings: 3, Keywords: 2},
			{ID: 1, Dir: "shard-001", Index: "index.xki", CRC: 0xcafef00d, Postings: 4, Keywords: 2},
		},
	}
	if err := shard.WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	got, err := shard.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("manifest did not round-trip:\ngot  %+v\nwant %+v", got, m)
	}

	// A flipped body byte must fail the CRC check loudly.
	path := filepath.Join(dir, shard.ManifestName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := shard.LoadManifest(dir); err == nil {
		t.Fatal("LoadManifest accepted a corrupt manifest body")
	}

	// A foreign hash scheme must be rejected, not misrouted.
	m.Scheme = "other-scheme-v9"
	if err := shard.WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	if _, err := shard.LoadManifest(dir); err == nil {
		t.Fatal("LoadManifest accepted a manifest with a foreign hash scheme")
	}

	// Truncation / not-a-manifest.
	if err := os.WriteFile(path, []byte("XKWHAT 00000000\n{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := shard.LoadManifest(dir); err == nil {
		t.Fatal("LoadManifest accepted a foreign magic")
	}
}

func TestSplitAndVerify(t *testing.T) {
	ix := fig1Index(t)
	dir := t.TempDir()
	const n = 3
	m, err := shard.Split(ix, dir, n, shard.SplitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.N != n || len(m.Shards) != n {
		t.Fatalf("split manifest records %d/%d shards, want %d", m.N, len(m.Shards), n)
	}
	total := 0
	for _, si := range m.Shards {
		total += si.Postings
	}
	if total != ix.NumPostings() {
		t.Fatalf("split partitions hold %d postings, master %d", total, ix.NumPostings())
	}
	if _, err := shard.Verify(dir); err != nil {
		t.Fatalf("Verify failed on a fresh split: %v", err)
	}

	// Corrupt one partition file: Verify must fail and name the shard.
	ipath := filepath.Join(dir, m.Shards[1].Dir, m.Shards[1].Index)
	raw, err := os.ReadFile(ipath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(ipath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := shard.Verify(dir); err == nil {
		t.Fatal("Verify accepted a corrupted partition file")
	}
}

func TestSplitRejectsBadN(t *testing.T) {
	if _, err := shard.Split(fig1Index(t), t.TempDir(), 0, shard.SplitOptions{}); err == nil {
		t.Fatal("Split accepted n=0")
	}
}
