package kwindex

import (
	"slices"
	"sort"
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
// (TO, node) — the multi-token keyword semantics of ContainingList.
// Each list is deduplicated by (TO, node) before counting, so duplicate
// postings within one list do not defeat the intersection. The result is
// sorted by (TO, node).
func Intersect(lists [][]Posting) []Posting {
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
	byKey := make(map[key]Posting)
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
	var out []Posting
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
