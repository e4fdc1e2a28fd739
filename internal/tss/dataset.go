package tss

import (
	"repro/internal/schema"
	"repro/internal/xmlgraph"
)

// Dataset is a decomposed dataset: the schema graph and target-segment
// spec, the TSS graph derived from them, the typed data graph and its
// target objects. Prepare builds one from any data graph; several
// systems (one per decomposition preset, say) may share it.
type Dataset struct {
	Schema *schema.Graph
	Spec   Spec
	TSS    *Graph
	Data   *xmlgraph.Graph
	Obj    *ObjectGraph
}

// Prepare runs the structural half of the load stage (Figure 7) over a
// data graph: it assigns every node its schema type, derives the TSS
// graph from the schema and spec, and decomposes the data into target
// objects.
func Prepare(sg *schema.Graph, spec Spec, data *xmlgraph.Graph) (*Dataset, error) {
	if err := sg.Assign(data); err != nil {
		return nil, err
	}
	tg, err := Derive(sg, spec)
	if err != nil {
		return nil, err
	}
	og, err := tg.Decompose(data)
	if err != nil {
		return nil, err
	}
	return &Dataset{Schema: sg, Spec: spec, TSS: tg, Data: data, Obj: og}, nil
}
