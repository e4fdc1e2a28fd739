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

// Summary returns a short human-readable rendering of a target object:
// its head label plus the leaf member fields, e.g.
// "part[key=1005 name=TV]". Used by result presentation.
func (og *ObjectGraph) Summary(id int64) string {
	to := og.tos[id]
	if to == nil {
		return fmt.Sprintf("TO(%d)?", id)
	}
	head := og.Data.Node(xmlgraph.NodeID(to.ID))
	// Non-XML sources can leave head labels empty; the segment name is
	// the generic fallback — "#42" with no label is not a summary.
	label := head.Label
	if label == "" {
		label = to.Segment
	}
	var fields []string
	if head.Value != "" {
		fields = append(fields, head.Value)
	}
	rest := append([]xmlgraph.NodeID(nil), to.Nodes[1:]...)
	sort.Slice(rest, func(i, j int) bool { return rest[i] < rest[j] })
	for _, n := range rest {
		node := og.Data.Node(n)
		if node.Value != "" {
			fields = append(fields, fmt.Sprintf("%s=%s", node.Label, node.Value))
		}
	}
	if len(fields) == 0 {
		return fmt.Sprintf("%s#%d", label, to.ID)
	}
	return fmt.Sprintf("%s[%s]", label, strings.Join(fields, " "))
}
