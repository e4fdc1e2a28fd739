package schema

import (
	"fmt"
	"sort"

	"repro/internal/xmlgraph"
)

// Assign types every node of the data graph with its schema node and
// verifies conformance: roots must match root-capable schema nodes,
// containment children must match containment schema edges under their
// parent's type (with MaxOccurs respected), reference edges must match
// reference schema edges, and choice nodes must instantiate at most one
// alternative.
//
// Tags resolve context-dependently: a child element's schema node is the
// target of the unique containment edge under the parent's schema node
// whose Tag matches the element's tag. Ambiguity is a schema error.
func (g *Graph) Assign(data *xmlgraph.Graph) error {
	// Type roots first, then propagate down containment, then check
	// references.
	rootsByTag := make(map[string][]string)
	for _, name := range g.names {
		n := g.nodes[name]
		if n.Root {
			rootsByTag[n.Tag] = append(rootsByTag[n.Tag], name)
		}
	}
	var pending []xmlgraph.NodeID
	for _, id := range data.Roots() {
		node := data.Node(id)
		cands := rootsByTag[node.Label]
		if len(cands) == 0 {
			return fmt.Errorf("schema: root element <%s> (node %d) matches no root schema node", node.Label, id)
		}
		if len(cands) > 1 {
			return fmt.Errorf("schema: root tag <%s> is ambiguous among %v", node.Label, cands)
		}
		node.Type = cands[0]
		pending = append(pending, id)
	}

	for len(pending) > 0 {
		id := pending[0]
		pending = pending[1:]
		parent := data.Node(id)
		ptype := parent.Type
		childCount := make(map[string]int)
		for _, e := range data.Out(id) {
			if e.Kind != xmlgraph.Containment {
				continue
			}
			child := data.Node(e.To)
			var matches []Edge
			for _, se := range g.out[ptype] {
				if se.Kind == xmlgraph.Containment && g.nodes[se.To].Tag == child.Label {
					matches = append(matches, se)
				}
			}
			if len(matches) == 0 {
				return fmt.Errorf("schema: <%s> (node %d) may not contain <%s> (node %d)", ptype, id, child.Label, e.To)
			}
			if len(matches) > 1 {
				return fmt.Errorf("schema: tag <%s> under <%s> is ambiguous", child.Label, ptype)
			}
			se := matches[0]
			child.Type = se.To
			childCount[se.To]++
			if se.MaxOccurs != Unbounded && childCount[se.To] > se.MaxOccurs {
				return fmt.Errorf("schema: node %d has more than %d <%s> children", id, se.MaxOccurs, se.To)
			}
			pending = append(pending, e.To)
		}
		if g.IsChoice(ptype) {
			used := 0
			for _, c := range childCount {
				used += c
			}
			// Reference alternatives of the choice count as well.
			for _, e := range data.Out(id) {
				if e.Kind == xmlgraph.Reference {
					used++
				}
			}
			if used > 1 {
				return fmt.Errorf("schema: choice node %d (<%s>) instantiates %d alternatives", id, ptype, used)
			}
		}
	}

	// Every node must have been reached (typed); otherwise the graph has
	// containment components not anchored at a root.
	var untyped []xmlgraph.NodeID
	for _, id := range data.Nodes() {
		if data.Node(id).Type == "" {
			untyped = append(untyped, id)
		}
	}
	if len(untyped) > 0 {
		sort.Slice(untyped, func(i, j int) bool { return untyped[i] < untyped[j] })
		return fmt.Errorf("schema: %d nodes unreachable from roots (first: %d)", len(untyped), untyped[0])
	}

	// Reference edges.
	for _, id := range data.Nodes() {
		for _, e := range data.Out(id) {
			if e.Kind != xmlgraph.Reference {
				continue
			}
			ft, tt := data.Node(e.From).Type, data.Node(e.To).Type
			if _, ok := g.FindEdge(ft, tt, xmlgraph.Reference); !ok {
				return fmt.Errorf("schema: no reference edge %s->%s for data edge %d->%d", ft, tt, e.From, e.To)
			}
		}
	}
	return nil
}
