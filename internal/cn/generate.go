package cn

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/schema"
	"repro/internal/xmlgraph"
)

// Input parameterizes candidate network generation.
type Input struct {
	Schema   *schema.Graph
	Keywords []string
	// SchemaNodesOf lists, per keyword, the schema nodes whose extensions
	// contain it (from the master index's containing lists).
	SchemaNodesOf map[string][]string
	// MaxSize is Z, the maximum MTNN size the user is interested in.
	MaxSize int
	// MaxNetworks bounds the output as a safety valve (0 = unlimited).
	MaxNetworks int
}

// Generate enumerates all candidate networks of size up to Z in
// non-decreasing size order. The algorithm grows partial networks
// breadth-first from occurrences holding the first keyword, attaching
// one occurrence per step along schema edges in either direction, and
// prunes:
//
//   - duplicates, via canonical forms;
//   - occurrences with two containment parents (an element has one);
//   - choice occurrences instantiating more than one alternative;
//   - children beyond a containment edge's maxOccurs;
//   - partial networks that can no longer cover the remaining keywords
//     within the size budget.
//
// A partial network is emitted when every keyword is assigned and every
// leaf is a keyword occurrence. The search polls ctx once per partial
// network it expands and returns ctx's error when the caller gives up.
func Generate(ctx context.Context, in Input) ([]*Network, error) {
	if in.Schema == nil || len(in.Keywords) == 0 {
		return nil, fmt.Errorf("cn: need a schema and at least one keyword")
	}
	if in.MaxSize < 0 {
		return nil, fmt.Errorf("cn: negative MaxSize")
	}
	for _, k := range in.Keywords {
		if len(in.SchemaNodesOf[k]) == 0 {
			// Some keyword occurs nowhere: no results, no networks.
			return nil, nil
		}
		for _, s := range in.SchemaNodesOf[k] {
			if in.Schema.Node(s) == nil {
				return nil, fmt.Errorf("cn: keyword %q maps to unknown schema node %q", k, s)
			}
		}
	}

	kwIdx := make(map[string]int, len(in.Keywords))
	for i, k := range in.Keywords {
		kwIdx[k] = i
	}
	canHold := func(s string, kws []string) bool {
		for _, k := range kws {
			found := false
			for _, sn := range in.SchemaNodesOf[k] {
				if sn == s {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}

	type partial struct {
		net       *Network
		remaining uint32 // bitmask over in.Keywords still unassigned
	}
	fullMask := uint32(1)<<uint(len(in.Keywords)) - 1
	maskOf := func(kws []string) uint32 {
		var m uint32
		for _, k := range kws {
			m |= 1 << uint(kwIdx[k])
		}
		return m
	}

	// Seeds: every schema node that can hold the first keyword, annotated
	// with every subset of keywords containing it that the node can hold.
	var queue []partial
	seen := make(map[string]bool)
	k0 := in.Keywords[0]
	for _, s := range in.SchemaNodesOf[k0] {
		for _, sub := range keywordSubsets(in.Keywords, k0) {
			if !canHold(s, sub) {
				continue
			}
			net := &Network{Occs: []Occ{{Schema: s, Keywords: sub}}}
			key := net.Canon()
			if seen[key] {
				continue
			}
			seen[key] = true
			queue = append(queue, partial{net: net, remaining: fullMask &^ maskOf(sub)})
		}
	}

	var out []*Network
	for len(queue) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p := queue[0]
		queue = queue[1:]
		if p.remaining == 0 && allLeavesBound(p.net) {
			out = append(out, p.net)
			if in.MaxNetworks > 0 && len(out) >= in.MaxNetworks {
				break
			}
			continue // complete networks cannot grow into new candidates
		}
		if p.net.Size() >= in.MaxSize {
			continue
		}
		for v := range p.net.Occs {
			for _, nb := range in.Schema.Neighbors(p.net.Occs[v].Schema) {
				for _, sub := range extensionSubsets(in.Keywords, p.remaining) {
					if len(sub) > 0 && !canHold(nb.Node, sub) {
						continue
					}
					child := Occ{Schema: nb.Node, Keywords: sub}
					net := p.net.Clone()
					ci := len(net.Occs)
					net.Occs = append(net.Occs, child)
					var e Edge
					if nb.Forward {
						e = Edge{From: v, To: ci, Kind: nb.Edge.Kind}
					} else {
						e = Edge{From: ci, To: v, Kind: nb.Edge.Kind}
					}
					net.Edges = append(net.Edges, e)
					if !admissible(in.Schema, net, e) {
						continue
					}
					rem := p.remaining &^ maskOf(sub)
					// Feasibility: every free leaf needs at least one more
					// edge to become keyword-bound, and remaining keywords
					// need at least one new occurrence.
					need := 0
					for _, l := range net.Leaves() {
						if net.Occs[l].Free() {
							need++
						}
					}
					if need == 0 && rem != 0 {
						need = 1
					}
					if net.Size()+need > in.MaxSize {
						continue
					}
					key := net.Canon()
					if seen[key] {
						continue
					}
					seen[key] = true
					queue = append(queue, partial{net: net, remaining: rem})
				}
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Size() < out[j].Size() })
	return out, nil
}

// keywordSubsets returns every non-empty subset of keywords containing
// must, each sorted.
func keywordSubsets(keywords []string, must string) [][]string {
	var rest []string
	for _, k := range keywords {
		if k != must {
			rest = append(rest, k)
		}
	}
	var out [][]string
	for m := 0; m < 1<<uint(len(rest)); m++ {
		sub := []string{must}
		for i, k := range rest {
			if m&(1<<uint(i)) != 0 {
				sub = append(sub, k)
			}
		}
		sort.Strings(sub)
		out = append(out, sub)
	}
	return out
}

// extensionSubsets returns the keyword sets a newly attached occurrence
// may carry: the empty set (free) plus every non-empty subset of the
// remaining keywords.
func extensionSubsets(keywords []string, remaining uint32) [][]string {
	out := [][]string{nil}
	var rem []string
	for i, k := range keywords {
		if remaining&(1<<uint(i)) != 0 {
			rem = append(rem, k)
		}
	}
	for m := 1; m < 1<<uint(len(rem)); m++ {
		var sub []string
		for i, k := range rem {
			if m&(1<<uint(i)) != 0 {
				sub = append(sub, k)
			}
		}
		sort.Strings(sub)
		out = append(out, sub)
	}
	return out
}

// admissible checks the XML-specific constraints after adding edge e.
func admissible(sg *schema.Graph, net *Network, e Edge) bool {
	// Single containment parent.
	if e.Kind == xmlgraph.Containment {
		parents := 0
		for _, o := range net.Edges {
			if o.To == e.To && o.Kind == xmlgraph.Containment {
				parents++
			}
		}
		if parents > 1 {
			return false
		}
	}
	// Choice occurrences instantiate at most one alternative (outgoing
	// edge), counting both containment and reference alternatives.
	if sg.IsChoice(net.Occs[e.From].Schema) {
		outs := 0
		for _, o := range net.Edges {
			if o.From == e.From {
				outs++
			}
		}
		if outs > 1 {
			return false
		}
	}
	// maxOccurs: outgoing edges of one occurrence via the same schema
	// edge are bounded — for containment (children count) and for
	// references alike (a single-valued IDREF points to one element).
	se, ok := sg.FindEdge(net.Occs[e.From].Schema, net.Occs[e.To].Schema, e.Kind)
	if ok && se.MaxOccurs != schema.Unbounded {
		n := 0
		for _, o := range net.Edges {
			if o.From == e.From && o.Kind == e.Kind && net.Occs[o.To].Schema == net.Occs[e.To].Schema {
				n++
			}
		}
		if n > se.MaxOccurs {
			return false
		}
	}
	return true
}

func allLeavesBound(n *Network) bool {
	for _, l := range n.Leaves() {
		if n.Occs[l].Free() {
			return false
		}
	}
	return true
}
