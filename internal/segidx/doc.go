package segidx

import (
	"encoding/binary"
	"fmt"

	"repro/internal/kwindex"
	"repro/internal/tss"
	"repro/internal/xmlgraph"
)

// Field is one keyword-bearing node of an ingested document: the same
// unit kwindex.Build indexes when it walks the object graph. Its
// keywords are the tokens of Label and Value, deduplicated per field.
type Field struct {
	// Node distinguishes two nodes of the same type inside one target
	// object (the paper's ⟨TOid, nodeID, schemaNode⟩ triplet).
	Node xmlgraph.NodeID `json:"node"`
	// SchemaNode is the node's schema type — what the CN generator
	// matches keyword occurrences against.
	SchemaNode string `json:"schema"`
	// Label is the node's tag; Value its text content.
	Label string `json:"label"`
	Value string `json:"value"`
}

// Document is the unit of ingestion: one target object together with
// its keyword-bearing member nodes. Adding a document with the TO of an
// existing one replaces it entirely (newest wins).
type Document struct {
	TO     int64   `json:"to"`
	Fields []Field `json:"fields"`
}

// postings derives the document's master-index postings as
// kwindex.Build does: per field, one ⟨TO, node, schema node⟩ posting
// for each of kwindex.Keywords(label, value). emit is called once per
// (token, posting) pair.
func (d *Document) postings(emit func(tok string, p kwindex.Posting)) {
	for _, f := range d.Fields {
		for _, tok := range kwindex.Keywords(f.Label, f.Value) {
			emit(tok, kwindex.Posting{TO: d.TO, Node: f.Node, SchemaNode: f.SchemaNode})
		}
	}
}

// Summary renders the document with tss.FormatSummary, as the object
// graph renders a batch-loaded target object — e.g.
// "part[key=1005 name=TV]" — so ingested TOs present like native ones
// instead of as placeholders. The head is the field with the smallest
// node id (DocumentsFromObjectGraph and the object graph both assign the
// head the lowest id of its TO).
func (d *Document) Summary() string {
	if len(d.Fields) == 0 {
		return fmt.Sprintf("TO#%d", d.TO)
	}
	nodes := make([]xmlgraph.Node, len(d.Fields))
	for i, f := range d.Fields {
		nodes[i] = xmlgraph.Node{ID: f.Node, Label: f.Label, Value: f.Value, Type: f.SchemaNode}
		if f.Node < nodes[0].ID {
			nodes[0], nodes[i] = nodes[i], nodes[0]
		}
	}
	return tss.FormatSummary(d.TO, nodes)
}

// approxBytes estimates the document's memtable footprint for the
// flush trigger.
func (d *Document) approxBytes() int64 {
	n := int64(64)
	for _, f := range d.Fields {
		n += 48 + int64(len(f.SchemaNode)+len(f.Label)+len(f.Value))
	}
	return n
}

// Op is one ingestion operation: an upsert (Doc != nil) or a delete by
// target object (Doc == nil, Delete set).
type Op struct {
	Doc    *Document
	Delete int64
}

// Batch is a group of operations acknowledged (and made durable)
// together: the WAL frames a batch as a single record, so after a crash
// either every operation of an acknowledged batch is replayed or — for
// the unacknowledged batch a kill tore mid-write — none are.
type Batch []Op

// AddDoc appends an upsert to the batch.
func (b *Batch) AddDoc(d Document) { *b = append(*b, Op{Doc: &d}) }

// DeleteTO appends a tombstone for a target object to the batch.
func (b *Batch) DeleteTO(to int64) { *b = append(*b, Op{Delete: to}) }

// DocumentsFromObjectGraph extracts every target object of an object
// graph as an ingestable document — the offline bulk-build path
// (xkeyword -segop build). The documents reproduce exactly what
// kwindex.Build would index over the same graph.
func DocumentsFromObjectGraph(og *tss.ObjectGraph) []Document {
	byTO := make(map[int64]*Document)
	var order []int64
	for _, id := range og.Data.Nodes() {
		toID, ok := og.TOOf(id)
		if !ok {
			continue
		}
		d := byTO[toID]
		if d == nil {
			d = &Document{TO: toID}
			byTO[toID] = d
			order = append(order, toID)
		}
		n := og.Data.Node(id)
		d.Fields = append(d.Fields, Field{Node: id, SchemaNode: n.Type, Label: n.Label, Value: n.Value})
	}
	out := make([]Document, 0, len(order))
	for _, to := range order {
		out = append(out, *byTO[to])
	}
	return out
}

// WAL payload encoding. A record is one batch:
//
//	uvarint opCount
//	per op: one tag byte (opAdd | opDelete), then
//	  opAdd:    varint TO, uvarint nFields, per field:
//	            varint node, 3 × (uvarint len + bytes) for
//	            schema node, label, value
//	  opDelete: varint TO
const (
	opAdd    = 1
	opDelete = 2
)

// maxWALString bounds any single length-prefixed string in a WAL
// record; longer claims mean a corrupt record, not a huge allocation.
const maxWALString = 1 << 24

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func encodeBatch(b []byte, batch Batch) []byte {
	b = binary.AppendUvarint(b, uint64(len(batch)))
	for _, op := range batch {
		if op.Doc != nil {
			b = append(b, opAdd)
			b = binary.AppendVarint(b, op.Doc.TO)
			b = binary.AppendUvarint(b, uint64(len(op.Doc.Fields)))
			for _, f := range op.Doc.Fields {
				b = binary.AppendVarint(b, int64(f.Node))
				b = appendString(b, f.SchemaNode)
				b = appendString(b, f.Label)
				b = appendString(b, f.Value)
			}
		} else {
			b = append(b, opDelete)
			b = binary.AppendVarint(b, op.Delete)
		}
	}
	return b
}

// walDecoder reads the varint stream of one record payload, erroring
// instead of panicking on any malformed input.
type walDecoder struct {
	b []byte
	i int
}

func (d *walDecoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b[d.i:])
	if n <= 0 {
		return 0, fmt.Errorf("segidx: malformed uvarint at payload byte %d", d.i)
	}
	d.i += n
	return v, nil
}

func (d *walDecoder) varint() (int64, error) {
	v, n := binary.Varint(d.b[d.i:])
	if n <= 0 {
		return 0, fmt.Errorf("segidx: malformed varint at payload byte %d", d.i)
	}
	d.i += n
	return v, nil
}

func (d *walDecoder) string() (string, error) {
	l, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if l > maxWALString || l > uint64(len(d.b)-d.i) {
		return "", fmt.Errorf("segidx: string of %d bytes overruns payload at byte %d", l, d.i)
	}
	s := string(d.b[d.i : d.i+int(l)])
	d.i += int(l)
	return s, nil
}

func decodeBatch(payload []byte) (Batch, error) {
	d := &walDecoder{b: payload}
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(payload)) { // each op takes ≥ 1 byte
		return nil, fmt.Errorf("segidx: record claims %d ops in %d bytes", n, len(payload))
	}
	batch := make(Batch, 0, n)
	for k := uint64(0); k < n; k++ {
		if d.i >= len(d.b) {
			return nil, fmt.Errorf("segidx: record truncated at op %d", k)
		}
		tag := d.b[d.i]
		d.i++
		switch tag {
		case opAdd:
			to, err := d.varint()
			if err != nil {
				return nil, err
			}
			nf, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			if nf > uint64(len(d.b)-d.i) { // each field takes ≥ 4 bytes
				return nil, fmt.Errorf("segidx: document claims %d fields in %d bytes", nf, len(d.b)-d.i)
			}
			doc := &Document{TO: to}
			if nf > 0 {
				doc.Fields = make([]Field, 0, nf)
			}
			for j := uint64(0); j < nf; j++ {
				node, err := d.varint()
				if err != nil {
					return nil, err
				}
				schema, err := d.string()
				if err != nil {
					return nil, err
				}
				label, err := d.string()
				if err != nil {
					return nil, err
				}
				value, err := d.string()
				if err != nil {
					return nil, err
				}
				doc.Fields = append(doc.Fields, Field{Node: xmlgraph.NodeID(node), SchemaNode: schema, Label: label, Value: value})
			}
			batch = append(batch, Op{Doc: doc})
		case opDelete:
			to, err := d.varint()
			if err != nil {
				return nil, err
			}
			batch = append(batch, Op{Delete: to})
		default:
			return nil, fmt.Errorf("segidx: unknown op tag %d at payload byte %d", tag, d.i-1)
		}
	}
	if d.i != len(d.b) {
		return nil, fmt.Errorf("segidx: %d trailing bytes after record ops", len(d.b)-d.i)
	}
	return batch, nil
}
