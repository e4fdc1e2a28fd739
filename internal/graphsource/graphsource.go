// Package graphsource turns the commands' data flags into one
// decomposed dataset: Resolve reads a built-in schema's generated data
// or an XML document under it, a DTD or XSD schema with its spec file
// over an XML document, or a generic edge-list dump (internal/edgelist),
// and hands back the tss.Dataset that core.LoadPrepared builds a System
// over. The paper's pipeline is not XML-specific: every form goes
// through the one structural load, tss.Prepare, and the generated data
// comes back from its generator already decomposed.
package graphsource

import (
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/datagen"
	"repro/internal/dtd"
	"repro/internal/edgelist"
	"repro/internal/schema"
	"repro/internal/specfile"
	"repro/internal/tss"
	"repro/internal/xmlgraph"
	"repro/internal/xsd"
)

// Inputs names a data graph the way the commands' data flags do, each
// field the value of the flag of the same name. The forms are a
// built-in Schema ("dblp" or "tpch") over an In document or, without
// one, its generated data; a DTD or XSD with its Spec file over an In
// document; or a Nodes/Edges edge-list pair, which replaces the rest.
type Inputs struct {
	Schema, DTD, XSD, Spec, In, Nodes, Edges string
}

// Resolve reads the data graph in names and decomposes it. Its errors
// name the flags, so a command prints them as they are.
func Resolve(in Inputs) (*tss.Dataset, error) {
	if (in.Nodes == "") != (in.Edges == "") {
		return nil, errors.New("-nodes and -edges must be given together")
	}
	if in.Nodes != "" {
		switch {
		case in.In != "":
			return nil, errors.New("-nodes/-edges replace -in")
		case in.DTD != "" || in.XSD != "":
			return nil, errors.New("-nodes/-edges replace -dtd/-xsd")
		}
		el, err := edgelist.Open(in.Nodes, in.Edges, edgelist.Options{})
		if err != nil {
			return nil, err
		}
		return prepare(in.Nodes, el.Schema, el.Spec, el.Data)
	}

	var sg *schema.Graph
	var spec tss.Spec
	switch {
	case in.DTD != "" || in.XSD != "":
		if in.Spec == "" {
			return nil, errors.New("-dtd/-xsd require -spec (segments and IDREF targets)")
		}
		if in.In == "" {
			return nil, errors.New("-dtd/-xsd require -in (no built-in data for custom schemas)")
		}
		cfg, err := parseFile(in.Spec, specfile.Parse)
		if err != nil {
			return nil, err
		}
		if in.XSD != "" {
			sg, err = parseFile(in.XSD, func(r io.Reader) (*schema.Graph, error) {
				return xsd.Parse(r, xsd.Options{RefTargets: cfg.RefTargets, Roots: cfg.Roots})
			})
		} else {
			sg, err = parseFile(in.DTD, func(r io.Reader) (*schema.Graph, error) {
				return dtd.Parse(r, dtd.Options{RefTargets: cfg.RefTargets, Roots: cfg.Roots})
			})
		}
		if err != nil {
			return nil, err
		}
		spec = cfg.Spec
	case in.Schema == "tpch":
		sg, spec = datagen.TPCHSchema(), datagen.TPCHSpec()
	case in.Schema == "dblp":
		sg, spec = datagen.DBLPSchema(), datagen.DBLPSpec()
	default:
		return nil, fmt.Errorf("unknown schema %q", in.Schema)
	}

	if in.In != "" {
		data, err := parseFile(in.In, func(r io.Reader) (*xmlgraph.Graph, error) {
			return xmlgraph.Parse(r, xmlgraph.ParseOptions{OmitRoot: true})
		})
		if err != nil {
			return nil, err
		}
		return prepare(in.In, sg, spec, data)
	}
	if in.Schema == "tpch" {
		return datagen.TPCH(datagen.DefaultTPCHParams())
	}
	return datagen.DBLP(datagen.DefaultDBLPParams())
}

// prepare decomposes a data graph read from path, naming the file in
// its errors.
func prepare(path string, sg *schema.Graph, spec tss.Spec, data *xmlgraph.Graph) (*tss.Dataset, error) {
	ds, err := tss.Prepare(sg, spec, data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ds, nil
}

// parseFile opens path and parses it with parse.
func parseFile[T any](path string, parse func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close() //xk:ignore errdrop read-only file; parse sees every read error
	return parse(f)
}
