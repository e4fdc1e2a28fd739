package kwindex

import (
	"slices"

	"repro/internal/xmlgraph"
)

// Source is the read interface of the master index: everything the CN
// generator, optimizer, executor and presentation layers need from the
// load stage's inverted index. It is implemented by *Index (in memory)
// and by *diskindex.Reader (paged on disk behind a buffer pool), so the
// query pipeline runs unchanged on either backend. core.PostingSource
// aliases this type.
type Source interface {
	// ContainingList returns the containing list L(k) of §4: the sorted
	// ⟨TO, node, schema node⟩ postings of keyword k. Multi-token keywords
	// match nodes containing all tokens. The returned slice is shared and
	// must not be modified.
	ContainingList(k string) []Posting
	// SchemaNodes returns the distinct schema nodes whose extensions
	// contain keyword k, sorted. The query path derives these from
	// ContainingList with SplitList instead.
	SchemaNodes(k string) []string
	// TOSet returns the target objects containing keyword k, restricted
	// to postings on the given schema node ("" for any). The query path
	// derives TO sets from ContainingList with SplitList instead.
	TOSet(k, schemaNode string) map[int64]bool
	// NumPostings returns the total number of postings in the index.
	NumPostings() int
	// NumKeywords returns the number of distinct indexed tokens.
	NumKeywords() int
}

var _ Source = (*Index)(nil)

// Intersect returns the postings present in every list, keyed by
// (TO, node) — the multi-token keyword semantics of ContainingList. Every
// list must be sorted by (TO, node), as each backend's posting lists
// are; a key repeated within one list counts once. The lists are merged
// in one pass: the candidate key rises to each list's head in turn
// until every list's head holds it. The result is sorted by (TO, node)
// and takes each posting from the last list.
func Intersect(lists [][]Posting) []Posting {
	switch len(lists) {
	case 0:
		return nil
	case 1:
		return lists[0]
	}
	pos := make([]int, len(lists)) // each list's head
	var out []Posting
	for {
		if pos[0] == len(lists[0]) {
			return out
		}
		k := keyOf(lists[0][pos[0]])
		for i, agree := 1, 1; agree < len(lists); i = (i + 1) % len(lists) {
			ps, j := lists[i], pos[i]
			for j < len(ps) && keyOf(ps[j]).less(k) {
				j++
			}
			if pos[i] = j; j == len(ps) {
				return out
			}
			if h := keyOf(ps[j]); h == k {
				agree++
			} else {
				k, agree = h, 1
			}
		}
		out = append(out, lists[len(lists)-1][pos[len(lists)-1]])
		for i, ps := range lists {
			for pos[i] < len(ps) && keyOf(ps[pos[i]]) == k {
				pos[i]++
			}
		}
	}
}

// postingKey is the (TO, node) order posting lists are sorted in.
type postingKey struct {
	to   int64
	node xmlgraph.NodeID
}

func keyOf(p Posting) postingKey { return postingKey{p.TO, p.Node} }

func (a postingKey) less(b postingKey) bool {
	return a.to < b.to || a.to == b.to && a.node < b.node
}

// DistinctSchemaNodes returns the sorted distinct schema nodes of a
// posting list — the SchemaNodes computation shared by every backend. A
// keyword sits on few schema nodes, so a linear scan finds repeats.
func DistinctSchemaNodes(ps []Posting) []string {
	var out []string
	for _, p := range ps {
		if !slices.Contains(out, p.SchemaNode) {
			out = append(out, p.SchemaNode)
		}
	}
	slices.Sort(out)
	return out
}

// TOSetFromList builds the TOSet of a posting list, restricted to a
// schema node ("" for any) — shared by both backends.
func TOSetFromList(ps []Posting, schemaNode string) map[int64]bool {
	set := make(map[int64]bool)
	for _, p := range ps {
		if schemaNode == "" || p.SchemaNode == schemaNode {
			set[p.TO] = true
		}
	}
	return set
}

// SplitList splits a containing list into its sorted distinct schema
// nodes and, per schema node, the ascending duplicate-free target
// objects of the postings on it: tos[i] is the TO set of nodes[i]. Every
// TO set the query stage needs is one of these or an intersection of
// them. The TO slices share one backing array and must not be modified.
func SplitList(ps []Posting) (nodes []string, tos [][]int64) {
	nodes = DistinctSchemaNodes(ps)
	tos = make([][]int64, len(nodes))
	buf := make([]int64, 0, len(ps))
	for i, n := range nodes {
		// The list is sorted by (TO, node), so a TO repeats only
		// adjacently among one schema node's postings.
		start := len(buf)
		for _, p := range ps {
			if p.SchemaNode == n && (len(buf) == start || buf[len(buf)-1] != p.TO) {
				buf = append(buf, p.TO)
			}
		}
		tos[i] = buf[start:len(buf):len(buf)]
	}
	return nodes, tos
}

// IntersectTOs merges two ascending TO sets into their intersection. The
// result is never nil: an empty one means the constraints it joins match
// nothing.
func IntersectTOs(a, b []int64) []int64 {
	out := make([]int64, 0, min(len(a), len(b)))
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// HasTO reports whether the ascending TO set tos holds to.
func HasTO(tos []int64, to int64) bool {
	_, ok := slices.BinarySearch(tos, to)
	return ok
}
