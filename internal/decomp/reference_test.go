package decomp

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/cn"
	"repro/internal/datagen"
	"repro/internal/schema"
	"repro/internal/tss"
	"repro/internal/xmlgraph"
)

// referenceXKeyword is the Figure 12 search written directly against the
// Coverer: every candidate fragment copies the matching tables and every
// shape check re-matches the network's paths. It is the specification
// the shape-layout search in search.go must reproduce.
func referenceXKeyword(tg *tss.Graph, m, b int) (*Decomposition, error) {
	l := JoinBound(m, b)
	d := &Decomposition{Name: "XKeyword", Physical: Physical{ClusterBothDirections: true, HashIndexes: true}}
	for _, f := range EnumerateFragments(tg, 1, false) {
		d.add(f)
	}
	for _, f := range EnumerateFragments(tg, l, false) {
		d.add(f)
	}
	var shapes []*cn.TSSNetwork
	for _, s := range EnumerateShapes(tg, m) {
		if s.Size() > b+1 {
			shapes = append(shapes, s)
		}
	}
	cov := NewCoverer(tg, d.Fragments)
	var queue []int
	for i, s := range shapes {
		if _, ok := cov.Cover(s, b); !ok {
			queue = append(queue, i)
		}
	}
	recheck := func(q []int) []int {
		cov = NewCoverer(tg, d.Fragments)
		var nq []int
		for _, si := range q {
			if _, ok := cov.Cover(shapes[si], b); !ok {
				nq = append(nq, si)
			}
		}
		return nq
	}
	candidates := func(q []int, size int, wantMVD bool) []Fragment {
		seen := make(map[string]Fragment)
		for _, si := range q {
			for _, f := range referencePathFragments(tg, shapes[si], size) {
				if f.IsUseless(tg) || f.HasMVD(tg) != wantMVD {
					continue
				}
				seen[f.Key()] = f
			}
		}
		keys := make([]string, 0, len(seen))
		for k := range seen {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out := make([]Fragment, len(keys))
		for i, k := range keys {
			out[i] = seen[k]
		}
		return out
	}
	with := func(f Fragment) *Coverer {
		n := NewCoverer(tg, d.Fragments)
		n.addFragment(f)
		return n
	}

	for size := l + 1; size <= m && len(queue) > 0; size++ {
		for _, f := range candidates(queue, size, false) {
			helps := false
			trial := with(f)
			for _, si := range queue {
				if _, ok := trial.Cover(shapes[si], b); ok {
					helps = true
					break
				}
			}
			if helps {
				d.add(f)
				cov = trial
			}
		}
		queue = recheck(queue)
	}
	if len(queue) > 0 {
		var mvds []Fragment
		for n := 2; n <= l; n++ {
			mvds = append(mvds, candidates(queue, n, true)...)
		}
		for len(queue) > 0 {
			bestGain, bestIdx := 0, -1
			for i, f := range mvds {
				if d.Has(f) {
					continue
				}
				trial := with(f)
				gain := 0
				for _, si := range queue {
					if _, ok := trial.Cover(shapes[si], b); ok {
						gain++
					}
				}
				if gain > bestGain {
					bestGain, bestIdx = gain, i
				}
			}
			if bestIdx < 0 {
				return nil, fmt.Errorf("decomp: %d CTSSN shapes cannot be covered with B=%d joins (first: %s)",
					len(queue), b, shapes[queue[0]])
			}
			d.add(mvds[bestIdx])
			queue = recheck(queue)
		}
	}
	sort.Slice(d.Fragments, func(i, j int) bool { return d.Fragments[i].Key() < d.Fragments[j].Key() })
	return d, nil
}

// referencePathFragments returns the fragments induced by the simple
// paths of exactly `size` edges in the network.
func referencePathFragments(tg *tss.Graph, t *cn.TSSNetwork, size int) []Fragment {
	adj := netAdjacency(t)
	var out []Fragment
	seen := make(map[string]bool)
	var dfs func(path []int, steps []Step)
	dfs = func(path []int, steps []Step) {
		if len(steps) == size {
			if f, err := NewFragment(tg, steps); err == nil && !seen[f.Key()] {
				seen[f.Key()] = true
				out = append(out, f)
			}
			return
		}
		cur := path[len(path)-1]
		for _, h := range adj[cur] {
			on := false
			for _, v := range path {
				if v == h.to {
					on = true
					break
				}
			}
			if on {
				continue
			}
			dfs(append(path, h.to), append(steps, h.step))
		}
	}
	for v := range t.Occs {
		dfs([]int{v}, nil)
	}
	return out
}

// twoEdgeGraph is segment a holding one b and referring to many b: a
// graph on which step 3's per-round recheck changes the fragment list (at
// M=6, B=2 it adds e1b.e0f.e1b, which a recheck after every addition
// would not). DBLP and TPC-H never exercise that rule.
func twoEdgeGraph() (*tss.Graph, error) {
	sg := schema.New()
	sg.MustBuild(
		sg.AddNode("a", schema.All), sg.AddNode("b", schema.All), sg.SetRoot("a"),
		sg.AddEdge("a", "b", xmlgraph.Containment, 1),
		sg.AddEdge("a", "b", xmlgraph.Reference, schema.Unbounded),
	)
	return tss.Derive(sg, tss.Spec{Segments: []tss.SegmentSpec{{Name: "a", Head: "a"}, {Name: "b", Head: "b"}}})
}

func searchGraphs(t *testing.T) map[string]*tss.Graph {
	t.Helper()
	out := make(map[string]*tss.Graph)
	for name, derive := range map[string]func() (*tss.Graph, error){
		"dblp":    func() (*tss.Graph, error) { return tss.Derive(datagen.DBLPSchema(), datagen.DBLPSpec()) },
		"tpch":    func() (*tss.Graph, error) { return tss.Derive(datagen.TPCHSchema(), datagen.TPCHSpec()) },
		"twoedge": twoEdgeGraph,
	} {
		tg, err := derive()
		if err != nil {
			t.Fatal(err)
		}
		out[name] = tg
	}
	return out
}

// TestSearchMatchesReference pins the shape-layout search to the
// Coverer-based reference: the same fragments for every graph and
// (M, B), B+1 pieces covered on edge bitmasks instead of re-matched
// networks.
func TestSearchMatchesReference(t *testing.T) {
	graphs := searchGraphs(t)
	for _, name := range []string{"dblp", "tpch", "twoedge"} {
		tg := graphs[name]
		for _, mb := range [][2]int{{4, 1}, {5, 2}, {6, 2}, {6, 3}, {4, 3}} {
			m, b := mb[0], mb[1]
			got, err := xkeywordUncached(tg, m, b)
			if err != nil {
				t.Fatalf("%s m=%d b=%d: %v", name, m, b, err)
			}
			want, err := referenceXKeyword(tg, m, b)
			if err != nil {
				t.Fatalf("%s m=%d b=%d: reference: %v", name, m, b, err)
			}
			g, w := strings.Join(got.FragmentKeys(), " "), strings.Join(want.FragmentKeys(), " ")
			if g != w {
				t.Errorf("%s m=%d b=%d: fragments\n got %s\nwant %s", name, m, b, g, w)
			}
		}
	}
}

// TestSearchRejectsUncoverable: at B=1 some DBLP shape of size 6 has no
// two-piece cover from any candidate, and the search says so.
func TestSearchRejectsUncoverable(t *testing.T) {
	tg := searchGraphs(t)["dblp"]
	_, err := xkeywordUncached(tg, 6, 1)
	if err == nil || !strings.Contains(err.Error(), "cannot be covered") {
		t.Fatalf("m=6 b=1: err = %v, want a cannot-be-covered error", err)
	}
}

// TestWalkKeyRejectsWideEdges: a step code holds edge ids up to 62;
// edge 63 traversed backward would spill into the previous step's bits
// and make the walk e0f.e63b collide with the one-step walk e63b.
func TestWalkKeyRejectsWideEdges(t *testing.T) {
	if _, ok := walkKey([]Step{{EdgeID: 62, Dir: Bwd}}); !ok {
		t.Fatal("edge 62 rejected")
	}
	for _, steps := range [][]Step{
		{{EdgeID: 63, Dir: Bwd}},
		{{EdgeID: 0, Dir: Fwd}, {EdgeID: 63, Dir: Bwd}},
		{{EdgeID: 63, Dir: Fwd}},
	} {
		if k, ok := walkKey(steps); ok {
			t.Errorf("walk %v keyed as %#x", steps, k)
		}
	}
}
