package tss

import (
	"encoding/xml"
	"fmt"
	"sort"
	"strings"

	"repro/internal/xmlgraph"
)

// BlobXML serializes a target object as a self-contained XML fragment:
// the head element with its intra-segment member subtree. The paper
// stores these BLOBs at load time so a target object can be returned
// instantly given its id (§4, load stage item 3); serializing one from
// the object graph takes microseconds, so they are built on demand and
// never stored.
func (og *ObjectGraph) BlobXML(id int64) ([]byte, error) {
	to := og.tos[id]
	if to == nil {
		return nil, fmt.Errorf("tss: unknown target object %d", id)
	}
	member := make(map[xmlgraph.NodeID]bool, len(to.Nodes))
	for _, n := range to.Nodes {
		member[n] = true
	}
	var sb strings.Builder
	var render func(n xmlgraph.NodeID)
	render = func(n xmlgraph.NodeID) {
		node := og.Data.Node(n)
		fmt.Fprintf(&sb, "<%s id=\"%d\">", node.Label, n)
		if node.Value != "" {
			if err := xml.EscapeText(&sb, []byte(node.Value)); err != nil {
				// strings.Builder never errors; keep vet quiet.
				panic(err)
			}
		}
		kids := og.Data.ContainmentChildren(n)
		sort.Slice(kids, func(i, j int) bool { return kids[i] < kids[j] })
		for _, k := range kids {
			if member[k] {
				render(k)
			}
		}
		fmt.Fprintf(&sb, "</%s>", node.Label)
	}
	render(xmlgraph.NodeID(to.ID))
	return []byte(sb.String()), nil
}

// Summary returns a short human-readable rendering of a target object,
// FormatSummary over its nodes, e.g. "part[key=1005 name=TV]". Used by
// result presentation.
func (og *ObjectGraph) Summary(id int64) string {
	to := og.tos[id]
	if to == nil {
		return fmt.Sprintf("TO(%d)?", id)
	}
	nodes := make([]xmlgraph.Node, len(to.Nodes))
	for i, n := range to.Nodes {
		nodes[i] = *og.Data.Node(n)
	}
	return FormatSummary(to.ID, nodes)
}

// FormatSummary renders target object id from its nodes, head first:
// the head's label, then the head's value and label=value for every
// other valued node in node-id order — "part[key=1005 name=TV]", or
// "part#1005" when no node has a value. Non-XML sources can leave the
// head's label empty; its schema node (the segment's head) names it
// then, since "#42" with no label is not a summary. The object graph
// and segidx's ingested documents both render through it, so an object
// reads the same whichever way it was loaded.
func FormatSummary(id int64, nodes []xmlgraph.Node) string {
	head := nodes[0]
	label := head.Label
	if label == "" {
		label = head.Type
	}
	var fields []string
	if head.Value != "" {
		fields = append(fields, head.Value)
	}
	rest := append([]xmlgraph.Node(nil), nodes[1:]...)
	sort.Slice(rest, func(i, j int) bool { return rest[i].ID < rest[j].ID })
	for _, n := range rest {
		if n.Value != "" {
			fields = append(fields, fmt.Sprintf("%s=%s", n.Label, n.Value))
		}
	}
	if len(fields) == 0 {
		return fmt.Sprintf("%s#%d", label, id)
	}
	return fmt.Sprintf("%s[%s]", label, strings.Join(fields, " "))
}
