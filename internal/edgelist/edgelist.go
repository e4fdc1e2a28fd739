// Package edgelist loads generic edge-list / relational dumps — a nodes
// file and an edges file, CSV or TSV — as a schema, a segment spec and
// a data graph that tss.Prepare decomposes like any other, so
// non-XML data graphs (citation networks, wiki links, an exported SQL
// `edges` table) run through the unchanged XKeyword pipeline: schema
// and segment spec are inferred from the dump, the data graph is built
// with the same containment/reference shape the XML path produces, and
// tss.Decompose → kwindex → pipeline never know the difference.
//
// Format. The nodes file's header is `id,type,<attr>...`: every row is
// one entity with a unique string id, a type naming its segment, and
// optional attribute cells that become searchable text fields. The
// edges file's header is `from,to,label`: every row is one typed edge
// between two node ids. Tab-separated input is detected from the
// header. Example:
//
//	id,type,title,year,name
//	p1,paper,Proximity Search on Graphs,2003,
//	a1,author,,,Vagelis Hristidis
//
//	from,to,label
//	p1,a1,written_by
//
// Modeling. Each node row becomes a head node of its type with one
// child node per non-empty attribute (containment, like an XML
// element's fields). Each edge row becomes a dummy node labeled with
// the edge label, contained in the source and referencing the target —
// the exact authorref/cite idiom of the DBLP schema. The dummy is load-
// bearing, not cosmetic: TSS derivation contracts dummy chains into one
// target-object edge, but it deliberately drops length-1 intra-segment
// paths, so a direct same-type edge (paper cites paper) would silently
// vanish without it.
package edgelist

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/schema"
	"repro/internal/tss"
	"repro/internal/xmlgraph"
)

// Options configure Parse/Open.
type Options struct {
	// Name labels the dataset in errors and logs (default "edgelist").
	Name string
}

// Dataset is a parsed dump: the inferred schema and segment spec and
// the data graph, which tss.Prepare (or core.Load) decomposes.
type Dataset struct {
	Schema *schema.Graph
	Spec   tss.Spec
	Data   *xmlgraph.Graph

	// NumEntities and NumLinks report the dump's row counts for logs.
	NumEntities int
	NumLinks    int
}

// Open loads a nodes file and an edges file from disk.
func Open(nodesPath, edgesPath string, opts Options) (*Dataset, error) {
	if opts.Name == "" {
		opts.Name = "edgelist:" + filepath.Base(nodesPath)
	}
	nf, err := os.Open(nodesPath)
	if err != nil {
		return nil, fmt.Errorf("edgelist: %w", err)
	}
	defer nf.Close() //xk:ignore errdrop read-only file; Parse sees every read error
	ef, err := os.Open(edgesPath)
	if err != nil {
		return nil, fmt.Errorf("edgelist: %w", err)
	}
	defer ef.Close() //xk:ignore errdrop read-only file; Parse sees every read error
	return Parse(nf, ef, opts)
}

// nodeRow is one parsed entity.
type nodeRow struct {
	id, typ string
	attrs   []string // parallel to the attr column list; "" = absent
}

// edgeRow is one parsed link.
type edgeRow struct {
	from, to, label string
}

// Parse reads the two files and builds the dataset: data graph, inferred
// schema, inferred segment spec. Every malformed input errors loudly —
// a dump that parses loads, or the caller learns exactly why not.
func Parse(nodes, edges io.Reader, opts Options) (*Dataset, error) {
	if opts.Name == "" {
		opts.Name = "edgelist"
	}
	attrCols, nrows, err := parseNodes(nodes)
	if err != nil {
		return nil, fmt.Errorf("edgelist: %s: %w", opts.Name, err)
	}
	erows, err := parseEdges(edges)
	if err != nil {
		return nil, fmt.Errorf("edgelist: %s: %w", opts.Name, err)
	}

	// Index the rows: id uniqueness, id -> type, per-type attribute
	// usage, per-(fromType,label,toType) edge usage.
	typeOf := make(map[string]string, len(nrows))
	attrUsed := make(map[string]map[int]bool) // type -> attr column set
	for _, r := range nrows {
		if _, dup := typeOf[r.id]; dup {
			return nil, fmt.Errorf("edgelist: %s: duplicate node id %q", opts.Name, r.id)
		}
		typeOf[r.id] = r.typ
		used := attrUsed[r.typ]
		if used == nil {
			used = make(map[int]bool)
			attrUsed[r.typ] = used
		}
		for ci, v := range r.attrs {
			if v != "" {
				used[ci] = true
			}
		}
	}
	type linkShape struct{ from, label, to string }
	linkShapes := make(map[linkShape]bool)
	for _, e := range erows {
		ft, ok := typeOf[e.from]
		if !ok {
			return nil, fmt.Errorf("edgelist: %s: edge references unknown node id %q", opts.Name, e.from)
		}
		tt, ok := typeOf[e.to]
		if !ok {
			return nil, fmt.Errorf("edgelist: %s: edge references unknown node id %q", opts.Name, e.to)
		}
		linkShapes[linkShape{ft, e.label, tt}] = true
	}

	// Collision checks up front, with edgelist-level messages: the same
	// conditions would fail later inside schema.Assign with a conformance
	// error that names none of the dump's columns.
	types := sortedKeys(attrUsed)
	typeSet := make(map[string]bool, len(types))
	for _, t := range types {
		typeSet[t] = true
	}
	labelFromTypes := make(map[string][]string) // label -> from types (sorted later)
	labelToTypes := make(map[string][]string)
	for ls := range linkShapes {
		if typeSet[ls.label] {
			return nil, fmt.Errorf("edgelist: %s: edge label %q collides with a node type", opts.Name, ls.label)
		}
		if attrUsed[ls.from] != nil {
			for ci := range attrUsed[ls.from] {
				if attrCols[ci] == ls.label {
					return nil, fmt.Errorf("edgelist: %s: edge label %q collides with attribute %q of type %q", opts.Name, ls.label, attrCols[ci], ls.from)
				}
			}
		}
		labelFromTypes[ls.label] = appendUnique(labelFromTypes[ls.label], ls.from)
		labelToTypes[ls.label] = appendUnique(labelToTypes[ls.label], ls.to)
	}
	labels := sortedKeys(labelFromTypes)

	// Infer the schema: one root-capable node per type, one tagged child
	// per used (type, attribute), one dummy node per edge label with
	// containment in from-types and references to to-types. Everything
	// iterates in sorted/column order so the same dump always produces
	// the same schema.
	sg := schema.New()
	var steps []error
	for _, t := range types {
		steps = append(steps, sg.AddNode(t, schema.All), sg.SetRoot(t))
	}
	for _, t := range types {
		for _, ci := range sortedInts(attrUsed[t]) {
			attr := attrCols[ci]
			steps = append(steps,
				sg.AddTaggedNode(t+"."+attr, attr, schema.All),
				sg.AddEdge(t, t+"."+attr, xmlgraph.Containment, 1))
		}
	}
	for _, l := range labels {
		steps = append(steps, sg.AddNode(l, schema.All))
		sort.Strings(labelFromTypes[l])
		sort.Strings(labelToTypes[l])
		for _, ft := range labelFromTypes[l] {
			steps = append(steps, sg.AddEdge(ft, l, xmlgraph.Containment, schema.Unbounded))
		}
		for _, tt := range labelToTypes[l] {
			steps = append(steps, sg.AddEdge(l, tt, xmlgraph.Reference, 1))
		}
	}
	for _, st := range steps {
		if st != nil {
			return nil, fmt.Errorf("edgelist: %s: inferring schema: %w", opts.Name, st)
		}
	}

	// Infer the segment spec: every type is a segment headed by itself
	// with its attribute nodes as members; every (from,label,to) shape
	// gets a presentation annotation on its head-to-head path.
	var spec tss.Spec
	for _, t := range types {
		seg := tss.SegmentSpec{Name: t, Head: t}
		for _, ci := range sortedInts(attrUsed[t]) {
			seg.Members = append(seg.Members, t+"."+attrCols[ci])
		}
		spec.Segments = append(spec.Segments, seg)
	}
	var shapes []linkShape
	for ls := range linkShapes {
		shapes = append(shapes, ls)
	}
	sort.Slice(shapes, func(i, j int) bool {
		if shapes[i].from != shapes[j].from {
			return shapes[i].from < shapes[j].from
		}
		if shapes[i].label != shapes[j].label {
			return shapes[i].label < shapes[j].label
		}
		return shapes[i].to < shapes[j].to
	})
	for _, ls := range shapes {
		pretty := strings.ReplaceAll(ls.label, "_", " ")
		spec.Annotations = append(spec.Annotations, tss.Annotation{
			Path:     ls.from + ">" + ls.label + ">" + ls.to,
			Forward:  pretty,
			Backward: pretty + " of",
		})
	}

	// Build the data graph in file order: heads with attribute children,
	// then one dummy per edge row.
	data := xmlgraph.New()
	heads := make(map[string]xmlgraph.NodeID, len(nrows))
	for _, r := range nrows {
		h := data.AddNode(r.typ, "")
		heads[r.id] = h
		for ci, v := range r.attrs {
			if v == "" {
				continue
			}
			data.MustAddEdge(h, data.AddNode(attrCols[ci], v), xmlgraph.Containment)
		}
	}
	for _, e := range erows {
		dummy := data.AddNode(e.label, "")
		data.MustAddEdge(heads[e.from], dummy, xmlgraph.Containment)
		data.MustAddEdge(dummy, heads[e.to], xmlgraph.Reference)
	}
	if err := data.Validate(); err != nil {
		return nil, fmt.Errorf("edgelist: %s: %w", opts.Name, err)
	}
	return &Dataset{
		Schema:      sg,
		Spec:        spec,
		Data:        data,
		NumEntities: len(nrows),
		NumLinks:    len(erows),
	}, nil
}

// parseNodes reads the nodes file: header `id,type,<attr>...`, then one
// row per entity. Returns the attribute column names and the rows.
func parseNodes(r io.Reader) (attrCols []string, rows []nodeRow, err error) {
	recs, err := readTable(r)
	if err != nil {
		return nil, nil, err
	}
	if len(recs) == 0 {
		return nil, nil, fmt.Errorf("nodes file is empty (want header id,type,...)")
	}
	head := recs[0]
	if len(head) < 2 || !strings.EqualFold(strings.TrimSpace(head[0]), "id") || !strings.EqualFold(strings.TrimSpace(head[1]), "type") {
		return nil, nil, fmt.Errorf("nodes header must start with id,type (got %q)", strings.Join(head, ","))
	}
	seen := map[string]bool{"id": true, "type": true}
	for _, c := range head[2:] {
		c = strings.TrimSpace(c)
		if err := checkName("attribute column", c); err != nil {
			return nil, nil, err
		}
		if seen[c] {
			return nil, nil, fmt.Errorf("duplicate attribute column %q", c)
		}
		seen[c] = true
		attrCols = append(attrCols, c)
	}
	for li, rec := range recs[1:] {
		id := strings.TrimSpace(rec[0])
		typ := strings.TrimSpace(rec[1])
		if id == "" {
			return nil, nil, fmt.Errorf("nodes row %d: empty id", li+2)
		}
		if err := checkName("node type", typ); err != nil {
			return nil, nil, fmt.Errorf("nodes row %d: %w", li+2, err)
		}
		row := nodeRow{id: id, typ: typ, attrs: make([]string, len(attrCols))}
		for ci := range attrCols {
			row.attrs[ci] = strings.TrimSpace(rec[2+ci])
		}
		rows = append(rows, row)
	}
	if len(rows) == 0 {
		return nil, nil, fmt.Errorf("nodes file has a header but no rows")
	}
	return attrCols, rows, nil
}

// parseEdges reads the edges file: header `from,to,label`. An empty
// edge set is allowed (a pure entity dump still answers single-segment
// queries).
func parseEdges(r io.Reader) ([]edgeRow, error) {
	recs, err := readTable(r)
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, nil
	}
	head := recs[0]
	if len(head) != 3 || !strings.EqualFold(strings.TrimSpace(head[0]), "from") ||
		!strings.EqualFold(strings.TrimSpace(head[1]), "to") || !strings.EqualFold(strings.TrimSpace(head[2]), "label") {
		return nil, fmt.Errorf("edges header must be from,to,label (got %q)", strings.Join(head, ","))
	}
	var rows []edgeRow
	for li, rec := range recs[1:] {
		e := edgeRow{
			from:  strings.TrimSpace(rec[0]),
			to:    strings.TrimSpace(rec[1]),
			label: strings.TrimSpace(rec[2]),
		}
		if e.from == "" || e.to == "" {
			return nil, fmt.Errorf("edges row %d: empty endpoint", li+2)
		}
		if err := checkName("edge label", e.label); err != nil {
			return nil, fmt.Errorf("edges row %d: %w", li+2, err)
		}
		rows = append(rows, e)
	}
	return rows, nil
}

// readTable reads a whole CSV/TSV input, detecting the delimiter from
// the first line: a tab anywhere in it selects TSV. Every record must
// have the header's field count (encoding/csv enforces it).
func readTable(r io.Reader) ([][]string, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	text := string(raw)
	if strings.TrimSpace(text) == "" {
		return nil, nil
	}
	firstLine := text
	if i := strings.IndexByte(text, '\n'); i >= 0 {
		firstLine = text[:i]
	}
	cr := csv.NewReader(strings.NewReader(text))
	if strings.ContainsRune(firstLine, '\t') {
		cr.Comma = '\t'
	}
	recs, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	return recs, nil
}

// checkName validates a type, attribute or label name: these become
// schema node names and annotation path components, so the separators
// ('.' joins type and attribute, '>' joins path steps) and whitespace
// are forbidden — loudly, naming the offender.
func checkName(what, name string) error {
	if name == "" {
		return fmt.Errorf("empty %s", what)
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
		default:
			return fmt.Errorf("%s %q: character %q not allowed (want letters, digits, _ or -)", what, name, r)
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedInts(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func appendUnique(ss []string, s string) []string {
	for _, have := range ss {
		if have == s {
			return ss
		}
	}
	return append(ss, s)
}
