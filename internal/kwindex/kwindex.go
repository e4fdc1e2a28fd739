// Package kwindex implements XKeyword's master index (paper §4, load
// stage item 1): an inverted index that stores, for every keyword k, the
// list of ⟨TOid, nodeID, schemaNode⟩ triplets identifying the nodes that
// contain k. The schema node is needed by the CN generator and the node
// id distinguishes two nodes of the same type inside one target object.
// It replaces the Oracle interMedia Text extension of the paper's
// implementation.
package kwindex

import (
	"sort"
	"unicode"
	"unicode/utf8"

	"repro/internal/tss"
	"repro/internal/xmlgraph"
)

// Posting locates one occurrence of a keyword.
type Posting struct {
	TO         int64
	Node       xmlgraph.NodeID
	SchemaNode string
}

// Index is the master index. Build once with Build; reads are then safe
// for concurrent use.
type Index struct {
	postings map[string][]Posting
	nTokens  int
}

// Tokenize lower-cases s and splits it into maximal letter/digit runs.
// Tokens that are already lowercase ASCII alphanumerics — the common case
// on real data — are returned as substrings of s without allocating; the
// transformation buffer is reused across the remaining tokens, so the
// only per-call allocations are the token slice and one string per token
// that actually needs lower-casing.
func Tokenize(s string) []string {
	var toks []string
	var buf []byte // reused scratch for tokens that need transformation
	start := -1    // byte offset of the current token, -1 = between tokens
	clean := true  // current token so far is lowercase ASCII alnum
	flush := func(end int) {
		if start < 0 {
			return
		}
		if clean {
			toks = append(toks, s[start:end])
		} else {
			toks = append(toks, string(buf))
		}
		start, clean = -1, true
	}
	for i, r := range s {
		if !(unicode.IsLetter(r) || unicode.IsDigit(r)) {
			flush(i)
			continue
		}
		lower := (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9')
		if start < 0 {
			if toks == nil {
				toks = make([]string, 0, 4)
			}
			start, clean = i, lower
			if !lower {
				buf = utf8.AppendRune(buf[:0], unicode.ToLower(r))
			}
			continue
		}
		if clean {
			if lower {
				continue
			}
			// First rune needing transformation: copy the clean prefix.
			buf = append(buf[:0], s[start:i]...)
			clean = false
		}
		buf = utf8.AppendRune(buf, unicode.ToLower(r))
	}
	flush(len(s))
	return toks
}

// Keywords returns keywords(n) of §3.1 for a node with this tag and
// value: the distinct tokens of both, in first-seen order. A node has
// one posting per keyword, in Build and in segidx's documents alike.
func Keywords(label, value string) []string {
	toks := append(Tokenize(label), Tokenize(value)...)
	seen := make(map[string]bool)
	out := toks[:0]
	for _, tok := range toks {
		if !seen[tok] {
			seen[tok] = true
			out = append(out, tok)
		}
	}
	return out
}

// SortPostings puts a posting list in the order every list keeps: by
// TO, then by node.
func SortPostings(ps []Posting) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].TO != ps[j].TO {
			return ps[i].TO < ps[j].TO
		}
		return ps[i].Node < ps[j].Node
	})
}

// Build indexes every target-object member node of the object graph: the
// keywords of a node are the tokens of its tag and of its value (paper
// §3.1, keywords(n)). Dummy nodes carry no information and are skipped —
// they belong to no target object.
func Build(og *tss.ObjectGraph) *Index {
	postings := make(map[string][]Posting)
	for _, id := range og.Data.Nodes() {
		toID, ok := og.TOOf(id)
		if !ok {
			continue
		}
		n := og.Data.Node(id)
		for _, tok := range Keywords(n.Label, n.Value) {
			postings[tok] = append(postings[tok], Posting{TO: toID, Node: id, SchemaNode: n.Type})
		}
	}
	return FromPostings(postings)
}

// FromPostings builds an index directly from token → posting lists,
// taking ownership of the map and its slices. Each list is sorted by
// (TO, node) and empty lists are dropped, so the result is
// indistinguishable from an index Build produced over the same logical
// content. The segmented write path (internal/segidx) uses this to turn
// a sealed memtable into an index the diskindex writer can serialize.
func FromPostings(postings map[string][]Posting) *Index {
	ix := &Index{postings: postings}
	for tok, ps := range postings {
		if len(ps) == 0 {
			delete(postings, tok)
			continue
		}
		SortPostings(ps)
		ix.nTokens += len(ps)
	}
	return ix
}

// ContainingList returns the postings of keyword k (the containing list
// L(k) of §4). The keyword is tokenized first; a multi-token keyword
// matches nodes containing all its tokens. The returned slice must not
// be modified.
func (ix *Index) ContainingList(k string) []Posting {
	toks := Tokenize(k)
	switch len(toks) {
	case 0:
		return nil
	case 1:
		return ix.postings[toks[0]]
	}
	lists := make([][]Posting, len(toks))
	for i, tok := range toks {
		lists[i] = ix.postings[tok]
	}
	return Intersect(lists)
}

// SchemaNodes returns the distinct schema nodes whose extensions contain
// keyword k, sorted — the input the CN generator needs.
func (ix *Index) SchemaNodes(k string) []string {
	return DistinctSchemaNodes(ix.ContainingList(k))
}

// TOSet returns the set of target objects containing keyword k,
// restricted to postings on the given schema node ("" for any).
func (ix *Index) TOSet(k, schemaNode string) map[int64]bool {
	return TOSetFromList(ix.ContainingList(k), schemaNode)
}

// NumPostings returns the total number of postings in the index.
func (ix *Index) NumPostings() int { return ix.nTokens }

// NumKeywords returns the number of distinct indexed tokens.
func (ix *Index) NumKeywords() int { return len(ix.postings) }

// Terms returns every indexed token in ascending order — the enumeration
// the disk-index writer serializes.
func (ix *Index) Terms() []string {
	out := make([]string, 0, len(ix.postings))
	for tok := range ix.postings {
		out = append(out, tok)
	}
	sort.Strings(out)
	return out
}

// Postings returns the posting list of one exact token, bypassing
// tokenization ("" and unindexed tokens yield nil). The returned slice
// must not be modified.
func (ix *Index) Postings(token string) []Posting {
	return ix.postings[token]
}
