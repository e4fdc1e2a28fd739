// Package diskindex is the paged, disk-backed master index: a single
// binary file (conventionally *.xki) holding the inverted index the load
// stage builds, served by ReadAt through a fixed-capacity buffer pool so
// the system can answer keyword queries over datasets whose index does
// not fit in RAM, and so a restored snapshot starts serving without
// rebuilding the index (EMBANKS' disk-based direction for the paper's
// Oracle interMedia Text index; see PAPERS.md).
//
// # File format (version 2)
//
//	┌────────────────────────────────────────────────────────────┐
//	│ header (88 bytes, little endian, CRC-guarded)              │
//	├────────────────────────────────────────────────────────────┤
//	│ posting blocks — per term, delta-encoded varint triplets   │
//	│   ⟨TO delta, node delta (zigzag), schema-node id⟩          │
//	├────────────────────────────────────────────────────────────┤
//	│ schema-node table — uvarint count, then len-prefixed names │
//	├────────────────────────────────────────────────────────────┤
//	│ term dictionary — sorted; per term: len-prefixed token,    │
//	│   posting count, block offset, block length, block CRC32   │
//	│   (uvarints)                                               │
//	└────────────────────────────────────────────────────────────┘
//
// The dictionary and schema table are loaded into memory at Open (they
// are small — one entry per distinct token); posting blocks stay on disk
// and are paged in on demand. A CRC32 over the metadata sections and one
// over the header reject corrupt or truncated files at Open; the
// per-block CRC recorded in each dictionary entry (new in version 2)
// catches corruption inside the lazily paged posting region, which Open
// never touches — no silently wrong posting list can leave the reader.
package diskindex

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

const (
	// FormatVersion is the on-disk format revision.
	//
	// History:
	//
	//	1 — initial format
	//	2 — per-term posting-block CRC32 appended to each dictionary
	//	    entry, so paged reads are checksum-verified
	FormatVersion = 2
	// DefaultPageSize is the buffer-pool page size.
	DefaultPageSize = 4096
	// DefaultCacheBytes is the default buffer-pool budget.
	DefaultCacheBytes = 1 << 20

	headerSize = 88
)

// magic identifies an XKeyword disk index ("XKI" + format marker).
var magic = [4]byte{'X', 'K', 'I', '1'}

// header is the fixed-size file prologue.
type header struct {
	pageSize    uint32
	numTerms    uint64
	numPostings uint64
	postOff     uint64
	postLen     uint64
	schemaOff   uint64
	schemaLen   uint64
	dictOff     uint64
	dictLen     uint64
	metaCRC     uint32 // over the schema table and dictionary bytes
}

// marshal encodes the header, computing its trailing CRC.
func (h *header) marshal() []byte {
	b := make([]byte, headerSize)
	copy(b[0:4], magic[:])
	le := binary.LittleEndian
	le.PutUint32(b[4:], FormatVersion)
	le.PutUint32(b[8:], h.pageSize)
	// b[12:16] reserved.
	le.PutUint64(b[16:], h.numTerms)
	le.PutUint64(b[24:], h.numPostings)
	le.PutUint64(b[32:], h.postOff)
	le.PutUint64(b[40:], h.postLen)
	le.PutUint64(b[48:], h.schemaOff)
	le.PutUint64(b[56:], h.schemaLen)
	le.PutUint64(b[64:], h.dictOff)
	le.PutUint64(b[72:], h.dictLen)
	le.PutUint32(b[80:], h.metaCRC)
	le.PutUint32(b[84:], crc32.ChecksumIEEE(b[:84]))
	return b
}

// unmarshal decodes and validates the fixed-size fields (magic, version,
// header CRC); section-boundary validation is Open's job, which knows
// the file size.
func (h *header) unmarshal(b []byte) error {
	if len(b) != headerSize {
		return fmt.Errorf("diskindex: header is %d bytes, want %d", len(b), headerSize)
	}
	// The magic/version gates deliberately precede the CRC check so a
	// foreign or stale file reports "not an index" / "wrong version"
	// instead of a misleading corruption error; both reads are rejected
	// on mismatch, never parsed onward.
	if [4]byte(b[0:4]) != magic {
		return fmt.Errorf("diskindex: bad magic %q — not an .xki index file", b[0:4])
	}
	le := binary.LittleEndian
	if v := le.Uint32(b[4:]); v != FormatVersion {
		return fmt.Errorf("diskindex: format version %d, want %d — re-run the load stage to rebuild the index", v, FormatVersion)
	}
	if got, want := crc32.ChecksumIEEE(b[:84]), le.Uint32(b[84:]); got != want {
		return fmt.Errorf("diskindex: header checksum mismatch (file corrupt)")
	}
	h.pageSize = le.Uint32(b[8:])
	h.numTerms = le.Uint64(b[16:])
	h.numPostings = le.Uint64(b[24:])
	h.postOff = le.Uint64(b[32:])
	h.postLen = le.Uint64(b[40:])
	h.schemaOff = le.Uint64(b[48:])
	h.schemaLen = le.Uint64(b[56:])
	h.dictOff = le.Uint64(b[64:])
	h.dictLen = le.Uint64(b[72:])
	h.metaCRC = le.Uint32(b[80:])
	return nil
}

// uvarint reads one unsigned varint from b at position i, erroring
// instead of panicking on truncated or oversized encodings.
func uvarint(b []byte, i int) (uint64, int, error) {
	v, n := binary.Uvarint(b[i:])
	if n <= 0 {
		return 0, 0, fmt.Errorf("diskindex: malformed varint at byte %d", i)
	}
	return v, i + n, nil
}

// varint is uvarint's signed (zigzag) counterpart.
func varint(b []byte, i int) (int64, int, error) {
	v, n := binary.Varint(b[i:])
	if n <= 0 {
		return 0, 0, fmt.Errorf("diskindex: malformed varint at byte %d", i)
	}
	return v, i + n, nil
}
