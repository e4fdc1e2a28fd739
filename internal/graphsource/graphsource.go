// Package graphsource is the source-agnostic ingestion boundary: a
// Source describes any typed data graph — nodes, typed edges, text
// content, and the schema/segmentation hints the TSS machinery needs —
// and Load runs the unchanged XKeyword load stage (schema conformance,
// TSS derivation, target decomposition, master index, connection
// relations) over it. The paper's pipeline is not XML-specific; this
// interface is where that stops being theoretical: internal/xmlgraph
// datasets come in through the XML adapter, generic relational/edge-list
// dumps through internal/edgelist, and both feed tss.Decompose → kwindex
// → pipeline identically. Resolve turns the commands' data flags into a
// Source, so every command loads a data graph the same way.
package graphsource

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/tss"
	"repro/internal/xmlgraph"
)

// Source is a loadable data graph. The four parts are exactly what
// core.Load consumes: the schema hints (node types and typed edges),
// the target-segment spec (which types head segments, which are
// members, how cross-segment paths are presented), and the data graph
// itself (every text value lives on a node, every relationship is a
// Containment or Reference edge).
//
// Implementations may build the graph lazily in Data (e.g. parse a
// file), but each method must return the same value on every call: the
// load stage reads them once, tests read them repeatedly.
type Source interface {
	// DatasetName names the source for logs and errors ("dblp",
	// "edgelist:papers.csv").
	DatasetName() string
	// SchemaGraph returns the schema: node types and typed edges.
	SchemaGraph() (*schema.Graph, error)
	// Spec returns the target-segment spec over those types.
	Spec() (tss.Spec, error)
	// Data materializes the typed data graph.
	Data() (*xmlgraph.Graph, error)
}

// XML adapts an in-memory xmlgraph dataset (the repo's native shape —
// datagen output, xmlgraph.Parse output) to the Source interface.
type XML struct {
	Name    string
	Schema  *schema.Graph
	SpecVal tss.Spec
	DataVal *xmlgraph.Graph
}

var _ Source = (*XML)(nil)

// FromXML wraps an xmlgraph dataset as a Source.
func FromXML(name string, sg *schema.Graph, spec tss.Spec, data *xmlgraph.Graph) *XML {
	return &XML{Name: name, Schema: sg, SpecVal: spec, DataVal: data}
}

// DatasetName implements Source.
func (x *XML) DatasetName() string { return x.Name }

// SchemaGraph implements Source.
func (x *XML) SchemaGraph() (*schema.Graph, error) {
	if x.Schema == nil {
		return nil, fmt.Errorf("graphsource: %s has no schema", x.Name)
	}
	return x.Schema, nil
}

// Spec implements Source.
func (x *XML) Spec() (tss.Spec, error) { return x.SpecVal, nil }

// Data implements Source.
func (x *XML) Data() (*xmlgraph.Graph, error) {
	if x.DataVal == nil {
		return nil, fmt.Errorf("graphsource: %s has no data graph", x.Name)
	}
	return x.DataVal, nil
}

// Prepare runs the structural half of the load stage — conformance/type
// assignment, TSS derivation, target decomposition — without building a
// System, for callers that share the graphs across several systems.
func Prepare(src Source) (*core.Prepared, error) {
	sg, err := src.SchemaGraph()
	if err != nil {
		return nil, fmt.Errorf("graphsource: %s: %w", src.DatasetName(), err)
	}
	spec, err := src.Spec()
	if err != nil {
		return nil, fmt.Errorf("graphsource: %s: %w", src.DatasetName(), err)
	}
	data, err := src.Data()
	if err != nil {
		return nil, fmt.Errorf("graphsource: %s: %w", src.DatasetName(), err)
	}
	if err := sg.Assign(data); err != nil {
		return nil, fmt.Errorf("graphsource: %s: %w", src.DatasetName(), err)
	}
	tg, err := tss.Derive(sg, spec)
	if err != nil {
		return nil, fmt.Errorf("graphsource: %s: %w", src.DatasetName(), err)
	}
	og, err := tg.Decompose(data)
	if err != nil {
		return nil, fmt.Errorf("graphsource: %s: %w", src.DatasetName(), err)
	}
	return &core.Prepared{Schema: sg, TSS: tg, Data: data, Obj: og}, nil
}

// Load runs the full load stage over a source and returns a ready
// System — the source-agnostic face of core.Load.
func Load(src Source, opts core.Options) (*core.System, error) {
	p, err := Prepare(src)
	if err != nil {
		return nil, err
	}
	return core.LoadPrepared(p, opts)
}
