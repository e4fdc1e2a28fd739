package segidx

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

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

// decoder reads the varint stream of a WAL record payload or of a
// segment meta or manifest body. It never panics on malformed input: the
// first malformed field records err, every later read returns a zero
// value, and end reports the failure.
type decoder struct {
	b   []byte
	i   int
	err error
}

// openEnvelope checks the frame a segment meta and a manifest share —
// magic, uint32 version, trailing CRC32 over everything before it — and
// returns a decoder over the body between them, failed if the frame is.
func openEnvelope(b []byte, what string, magic [4]byte, version uint32) *decoder {
	d := &decoder{}
	switch {
	case len(b) < 12:
		d.fail("%s is %d bytes, too short", what, len(b))
	case [4]byte(b[0:4]) != magic:
		d.fail("bad %s magic %q", what, b[0:4])
	case binary.LittleEndian.Uint32(b[4:]) != version:
		d.fail("%s version %d, want %d", what, binary.LittleEndian.Uint32(b[4:]), version)
	case crc32.ChecksumIEEE(b[:len(b)-4]) != binary.LittleEndian.Uint32(b[len(b)-4:]):
		d.fail("%s checksum mismatch (file corrupt)", what)
	default:
		d.b, d.i = b[:len(b)-4], 8
	}
	return d
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("segidx: "+format, args...)
	}
}

func (d *decoder) byte() byte {
	if d.err == nil && d.i >= len(d.b) {
		d.fail("truncated at byte %d", d.i)
	}
	if d.err != nil {
		return 0
	}
	d.i++
	return d.b[d.i-1]
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.i:])
	if n <= 0 {
		d.fail("malformed uvarint at byte %d", d.i)
		return 0
	}
	d.i += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.i:])
	if n <= 0 {
		d.fail("malformed varint at byte %d", d.i)
		return 0
	}
	d.i += n
	return v
}

// count reads an element count, refusing one larger than the bytes left:
// every element takes at least one byte, so a larger claim is corruption,
// not an allocation request.
func (d *decoder) count() uint64 {
	n := d.uvarint()
	if n > uint64(len(d.b)-d.i) {
		d.fail("count %d overruns the %d bytes left at byte %d", n, len(d.b)-d.i, d.i)
		return 0
	}
	return n
}

func (d *decoder) string() string {
	l := d.uvarint()
	if l > maxWALString || l > uint64(len(d.b)-d.i) {
		d.fail("string of %d bytes overruns its input at byte %d", l, d.i)
		return ""
	}
	s := string(d.b[d.i : d.i+int(l)])
	d.i += int(l)
	return s
}

// end reports the first failure, or refuses bytes left over after the
// last field.
func (d *decoder) end() error {
	if d.err == nil && d.i != len(d.b) {
		d.fail("%d trailing bytes", len(d.b)-d.i)
	}
	return d.err
}

func decodeBatch(payload []byte) (Batch, error) {
	d := &decoder{b: payload}
	n := d.count() // each op takes ≥ 1 byte
	batch := make(Batch, 0, n)
	for k := uint64(0); k < n && d.err == nil; k++ {
		switch tag := d.byte(); tag {
		case opAdd:
			doc := &Document{TO: d.varint()}
			if nf := d.count(); nf > 0 { // each field takes ≥ 4 bytes
				doc.Fields = make([]Field, 0, nf)
				for j := uint64(0); j < nf && d.err == nil; j++ {
					// The reads run in the literal's order, the encoder's.
					doc.Fields = append(doc.Fields, Field{Node: xmlgraph.NodeID(d.varint()), SchemaNode: d.string(), Label: d.string(), Value: d.string()})
				}
			}
			batch = append(batch, Op{Doc: doc})
		case opDelete:
			batch = append(batch, Op{Delete: d.varint()})
		default:
			d.fail("unknown op tag %d at byte %d", tag, d.i-1)
		}
	}
	if err := d.end(); err != nil {
		return nil, err
	}
	return batch, nil
}
