package kwindex_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/diskindex"
	"repro/internal/kwindex"
	"repro/internal/segidx"
	"repro/internal/xmlgraph"
)

// referenceIntersect is the map-based intersection kwindex.Intersect
// replaced, kept as the reference the merge must match: postings keyed
// by (TO, node), each list deduplicated before counting, each kept key's
// posting taken from the first occurrence in the last list.
func referenceIntersect(lists [][]kwindex.Posting) []kwindex.Posting {
	switch len(lists) {
	case 0:
		return nil
	case 1:
		return lists[0]
	}
	type key struct {
		to   int64
		node int64
	}
	counts := make(map[key]int)
	byKey := make(map[key]kwindex.Posting)
	for _, ps := range lists {
		seen := make(map[key]bool)
		for _, p := range ps {
			k := key{p.TO, int64(p.Node)}
			if seen[k] {
				continue
			}
			seen[k] = true
			counts[k]++
			byKey[k] = p
		}
	}
	var out []kwindex.Posting
	for k, c := range counts {
		if c == len(lists) {
			out = append(out, byKey[k])
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TO != out[j].TO {
			return out[i].TO < out[j].TO
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// TestIntersectMatchesReference: over random (TO, node)-sorted lists with
// repeated keys and a schema node that differs between copies of a key,
// the merge returns exactly the map version's postings.
func TestIntersectMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	nonEmpty := 0
	for iter := 0; iter < 3000; iter++ {
		lists := make([][]kwindex.Posting, rng.Intn(5))
		tos, nodes := 1+rng.Intn(8), 1+rng.Intn(4)
		for i := range lists {
			n := rng.Intn(3 * tos * nodes / 2)
			for j := 0; j < n; j++ {
				lists[i] = append(lists[i], kwindex.Posting{
					TO:         int64(rng.Intn(tos)),
					Node:       xmlgraph.NodeID(rng.Intn(nodes)),
					SchemaNode: fmt.Sprintf("s%d.%d", i, j),
				})
			}
			sort.SliceStable(lists[i], func(a, b int) bool {
				pa, pb := lists[i][a], lists[i][b]
				return pa.TO < pb.TO || pa.TO == pb.TO && pa.Node < pb.Node
			})
		}
		want := referenceIntersect(lists)
		if got := kwindex.Intersect(lists); !reflect.DeepEqual(got, want) {
			t.Fatalf("lists %v:\ngot  %v\nwant %v", lists, got, want)
		}
		if len(want) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 300 {
		t.Fatalf("only %d non-empty intersections", nonEmpty)
	}
}

// TestPhraseListsMatchReference: for every multi-token value of the
// Figure 1 data, ContainingList on the in-memory index, the paged disk
// index and the live segmented index (half its documents flushed to a
// segment, half in the memtable) equals the map intersection of the
// in-memory index's per-token lists.
func TestPhraseListsMatchReference(t *testing.T) {
	ix, ds := buildFig1Index(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "fig1.xki")
	if err := diskindex.Create(path, ix); err != nil {
		t.Fatal(err)
	}
	disk, err := diskindex.Open(path, diskindex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disk.Close() })
	seg, err := segidx.Open(filepath.Join(dir, "seg"), segidx.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { seg.Close() })
	docs := segidx.DocumentsFromObjectGraph(ds.Obj)
	for i, d := range docs {
		var b segidx.Batch
		b.AddDoc(d)
		if err := seg.Apply(b); err != nil {
			t.Fatal(err)
		}
		if i == len(docs)/2 {
			if err := seg.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	backends := map[string]kwindex.Source{"ram": ix, "diskindex": disk, "segidx": seg}

	phrases := map[string]bool{}
	for _, id := range ds.Data.Nodes() {
		if v := ds.Data.Node(id).Value; len(kwindex.Tokenize(v)) > 1 {
			phrases[v] = true
		}
	}
	matched := 0
	for phrase := range phrases {
		var lists [][]kwindex.Posting
		for _, tok := range kwindex.Tokenize(phrase) {
			lists = append(lists, ix.ContainingList(tok))
		}
		want := referenceIntersect(lists)
		if len(want) > 0 {
			matched++
		}
		for name, src := range backends {
			if got := src.ContainingList(phrase); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: ContainingList(%q) = %v, want %v", name, phrase, got, want)
			}
		}
	}
	if len(phrases) < 5 || matched < len(phrases) {
		t.Fatalf("%d phrases, %d matched: %s", len(phrases), matched, strings.Join(keys(phrases), "; "))
	}
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
