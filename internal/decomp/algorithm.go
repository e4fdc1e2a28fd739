package decomp

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/cn"
	"repro/internal/tss"
)

// Decomposition is a named set of fragments together with the physical
// design applied when materializing their connection relations.
type Decomposition struct {
	Name      string
	Fragments []Fragment
	Physical  Physical
}

// Physical describes the storage design of a decomposition's relations,
// matching the variants compared in §7.
type Physical struct {
	// ClusterBothDirections sorts the primary copy forward and adds a
	// backward sorted copy, so probes in either traversal direction are
	// clustered range scans.
	ClusterBothDirections bool
	// HashIndexes builds a single-attribute hash index on every column.
	HashIndexes bool
}

// FragmentKeys returns the sorted canonical keys of the fragments.
func (d *Decomposition) FragmentKeys() []string {
	keys := make([]string, len(d.Fragments))
	for i, f := range d.Fragments {
		keys[i] = f.Key()
	}
	sort.Strings(keys)
	return keys
}

// Has reports whether the decomposition contains the fragment.
func (d *Decomposition) Has(f Fragment) bool {
	for _, g := range d.Fragments {
		if g.Key() == f.Key() {
			return true
		}
	}
	return false
}

// add appends f if not already present.
func (d *Decomposition) add(f Fragment) {
	if !d.Has(f) {
		d.Fragments = append(d.Fragments, f)
	}
}

// JoinBound returns L = ceil(M / (B+1)), the fragment size that suffices
// to evaluate any CTSSN of size up to M with at most B joins (Thm 5.1).
func JoinBound(m, b int) int {
	if b < 0 || m <= 0 {
		return m
	}
	return (m + b) / (b + 1)
}

// Minimal returns the minimal decomposition: one fragment per TSS edge
// (§5.1). Physical design is left zero; the §7 presets below vary it.
func Minimal(tg *tss.Graph) *Decomposition {
	d := &Decomposition{Name: "Minimal"}
	for _, e := range tg.Edges() {
		d.add(MustFragment(tg, Step{EdgeID: e.ID, Dir: Fwd}))
	}
	return d
}

// Complete returns the Complete decomposition of §7: every non-useless
// fragment (MVD ones included) of size up to L, which always contains the
// minimal decomposition, clustered in both directions.
func Complete(tg *tss.Graph, l int) *Decomposition {
	d := &Decomposition{Name: "Complete", Physical: Physical{ClusterBothDirections: true, HashIndexes: true}}
	for n := 1; n <= l; n++ {
		for _, f := range EnumerateFragments(tg, n, true) {
			d.add(f)
		}
	}
	return d
}

// XKeyword runs the decomposition algorithm of Figure 12 for a maximum
// CTSSN size M and join budget B:
//
//  1. add the non-MVD fragments of size L = ceil(M/(B+1)) (plus the
//     minimal single-edge fragments, so every edge is covered as
//     Definition 5.2 requires);
//  2. list the CTSSN shapes of size up to M not covered with ≤ B joins;
//  3. add non-MVD fragments of size > L that help cover them;
//  4. greedily add the minimum number of MVD fragments of size ≤ L to
//     cover the rest.
//
// The result is the inlined, non-MVD-where-possible decomposition used
// for top-k execution, clustered in both directions with hash indexes.
func XKeyword(tg *tss.Graph, m, b int) (*Decomposition, error) {
	if m <= 0 || b < 0 {
		return nil, fmt.Errorf("decomp: need m > 0 and b >= 0 (got m=%d b=%d)", m, b)
	}
	// The algorithm is deterministic in the TSS graph structure, so its
	// output is memoized per (graph fingerprint, m, b): reloading the
	// same schema (tests, benchmark variants) skips the shape scan.
	memoKey := fmt.Sprintf("%s|m=%d|b=%d", graphFingerprint(tg), m, b)
	if v, ok := xkMemo.Load(memoKey); ok {
		d := v.(*Decomposition)
		cp := *d
		cp.Fragments = append([]Fragment(nil), d.Fragments...)
		return &cp, nil
	}
	d, err := xkeywordUncached(tg, m, b)
	if err != nil {
		return nil, err
	}
	xkMemo.Store(memoKey, d)
	cp := *d
	cp.Fragments = append([]Fragment(nil), d.Fragments...)
	return &cp, nil
}

var xkMemo sync.Map

func graphFingerprint(tg *tss.Graph) string {
	var sb strings.Builder
	for _, e := range tg.Edges() {
		sb.WriteString(e.From)
		sb.WriteByte('|')
		sb.WriteString(e.To)
		sb.WriteByte('|')
		sb.WriteString(e.PathString())
		fmt.Fprintf(&sb, "|%v%v%v%s;", e.Kind, e.ForwardMany, e.BackwardMany, e.ChoicePrefix)
	}
	return sb.String()
}

func xkeywordUncached(tg *tss.Graph, m, b int) (*Decomposition, error) {
	if n := tg.NumEdges(); n > maxKeyedEdge+1 {
		return nil, fmt.Errorf("decomp: TSS graph has %d edges; walk keys hold edge ids up to %d", n, maxKeyedEdge)
	}
	l := JoinBound(m, b)
	d := &Decomposition{Name: "XKeyword", Physical: Physical{ClusterBothDirections: true, HashIndexes: true}}
	// Single-edge fragments first: Definition 5.2 requires every edge in
	// at least one fragment, and CTSSNs shorter than L are evaluable
	// only through full fragments (projecting a longer relation would
	// lose connections lacking the extension).
	for _, f := range EnumerateFragments(tg, 1, false) {
		d.add(f)
	}
	for _, f := range EnumerateFragments(tg, l, false) {
		d.add(f)
	}

	// Shapes of size ≤ B+1 are always covered by the single-edge
	// fragments (one piece per edge uses at most B joins), so only
	// larger shapes need checking.
	var shapes []*cn.TSSNetwork
	for _, s := range EnumerateShapes(tg, m) {
		if s.Size() > b+1 {
			shapes = append(shapes, s)
		}
	}
	if err := newSearcher(tg, shapes, b).search(d, m, l); err != nil {
		return nil, err
	}
	sort.Slice(d.Fragments, func(i, j int) bool { return d.Fragments[i].Key() < d.Fragments[j].Key() })
	return d, nil
}

// The §7 storage variants of the minimal decomposition.

// MinClust is the minimal decomposition with all clusterings per
// fragment (sorted copies in both directions).
func MinClust(tg *tss.Graph) *Decomposition {
	d := Minimal(tg)
	d.Name = "MinClust"
	d.Physical = Physical{ClusterBothDirections: true}
	return d
}

// MinNClustIndx is the minimal decomposition with single-attribute hash
// indexes on every column and no clustering.
func MinNClustIndx(tg *tss.Graph) *Decomposition {
	d := Minimal(tg)
	d.Name = "MinNClustIndx"
	d.Physical = Physical{HashIndexes: true}
	return d
}

// MinNClustNIndx is the minimal decomposition with no indexes and no
// clustering: every probe is a scan; hash joins are the sensible plan.
func MinNClustNIndx(tg *tss.Graph) *Decomposition {
	d := Minimal(tg)
	d.Name = "MinNClustNIndx"
	return d
}

// Combination unions two decompositions (used by the presentation-graph
// experiments: minimal + inlined).
func Combination(name string, ds ...*Decomposition) *Decomposition {
	out := &Decomposition{Name: name}
	for _, d := range ds {
		for _, f := range d.Fragments {
			out.add(f)
		}
		if d.Physical.ClusterBothDirections {
			out.Physical.ClusterBothDirections = true
		}
		if d.Physical.HashIndexes {
			out.Physical.HashIndexes = true
		}
	}
	return out
}
