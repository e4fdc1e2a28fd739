package segidx

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sort"

	"repro/internal/diskindex"
	"repro/internal/kwindex"
)

// A segment pairs an immutable .xki posting file (the same format the
// batch load stage writes, served by the same paged reader) with a
// small meta sidecar recording which target objects the segment owns:
//
//   - docs: the TOs whose documents were written into this segment's
//     postings, each with its presentation summary (so ingested objects
//     keep rendering properly after their document leaves the
//     memtable). A newer segment owning a TO masks every older layer's
//     postings for it (newest wins on update).
//   - tombs: the TOs deleted as of this segment. They mask older
//     layers the same way, but contribute no postings.
//
// Meta file format (version 2, little endian):
//
//	magic "XKS1" | uint32 version
//	uvarint nDocs  | per doc: varint delta-encoded sorted TO id,
//	                 then uvarint len + summary bytes
//	uvarint nTombs | varint delta-encoded sorted TO ids
//	uint32 CRC32 over everything before it
//
// Version 1 files (no summaries) are refused.
type segment struct {
	id    uint64
	rd    *diskindex.Reader
	docs  map[int64]string
	tombs map[int64]bool
}

// The layer methods. A segment claims the docs and tombs of its meta.

func (s *segment) claim(to int64) (claim, string) {
	if sum, ok := s.docs[to]; ok {
		return docClaim, sum
	}
	if s.tombs[to] {
		return tombClaim, ""
	}
	return noClaim, ""
}

func (s *segment) eachClaim(f func(to int64, c claim, summary string)) {
	for to, sum := range s.docs {
		f(to, docClaim, sum)
	}
	for to := range s.tombs {
		f(to, tombClaim, "")
	}
}

// postings reads one token through the paged reader. Terms are tokens,
// and tokenization is idempotent on its own output, so ContainingList
// resolves each term exactly.
func (s *segment) postings(token string) []kwindex.Posting { return s.rd.ContainingList(token) }
func (s *segment) terms() []string                         { return s.rd.Terms() }
func (s *segment) counts() (int, int)                      { return s.rd.NumPostings(), s.rd.NumKeywords() }

// err reports the reader's recorded fault: it soft-fails lookups, so a
// compaction checks it before committing a merge that read the segment.
func (s *segment) err() error {
	if err := s.rd.Err(); err != nil {
		return fmt.Errorf("segment %d: %w", s.id, err)
	}
	return nil
}

var segMetaMagic = [4]byte{'X', 'K', 'S', '1'}

const segMetaVersion = 2

// maxSummaryBytes truncates one stored summary; longer ones are display
// strings gone wrong, not data to preserve.
const maxSummaryBytes = 4096

func encodeSegMeta(docs map[int64]string, tombs map[int64]bool) []byte {
	b := make([]byte, 0, 16+9*(len(docs)+len(tombs)))
	b = append(b, segMetaMagic[:]...)
	b = binary.LittleEndian.AppendUint32(b, segMetaVersion)
	ids := make([]int64, 0, len(docs))
	for to := range docs {
		ids = append(ids, to)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	b = binary.AppendUvarint(b, uint64(len(ids)))
	var prev int64
	for _, to := range ids {
		b = binary.AppendVarint(b, to-prev)
		prev = to
		sum := docs[to]
		if len(sum) > maxSummaryBytes {
			sum = sum[:maxSummaryBytes]
		}
		b = binary.AppendUvarint(b, uint64(len(sum)))
		b = append(b, sum...)
	}
	ids = ids[:0]
	for to := range tombs {
		ids = append(ids, to)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	b = binary.AppendUvarint(b, uint64(len(ids)))
	prev = 0
	for _, to := range ids {
		b = binary.AppendVarint(b, to-prev)
		prev = to
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

func decodeSegMeta(b []byte) (docs map[int64]string, tombs map[int64]bool, err error) {
	d := openEnvelope(b, "segment meta", segMetaMagic, segMetaVersion)
	nDocs := d.count() // each doc takes ≥ 1 byte
	docs = make(map[int64]string, nDocs)
	var prev int64
	for j := uint64(0); j < nDocs && d.err == nil; j++ {
		prev += d.varint()
		docs[prev] = d.string()
	}
	nTombs := d.count() // each id takes ≥ 1 byte
	tombs = make(map[int64]bool, nTombs)
	prev = 0
	for j := uint64(0); j < nTombs && d.err == nil; j++ {
		prev += d.varint()
		tombs[prev] = true
	}
	if err := d.end(); err != nil {
		return nil, nil, err
	}
	return docs, tombs, nil
}

// writeSegment serializes postings + ownership to the segment file pair
// crash-safely (both files commit by atomic rename; neither is
// referenced until the manifest commits) and returns the .xki metadata
// CRC, the manifest's fingerprint for the pair.
func writeSegment(xkiPath, metaPath string, postings map[string][]kwindex.Posting, docs map[int64]string, tombs map[int64]bool) (xkiCRC uint32, metaCRC uint32, err error) {
	ix := kwindex.FromPostings(postings)
	xkiCRC, err = diskindex.CreateCRC(xkiPath, ix)
	if err != nil {
		return 0, 0, err
	}
	meta := encodeSegMeta(docs, tombs)
	metaCRC = crc32.ChecksumIEEE(meta)
	if err := writeFileAtomic(metaPath, meta); err != nil {
		return 0, 0, err
	}
	return xkiCRC, metaCRC, nil
}

// openSegment opens one committed segment pair, verifying both files
// against the manifest's recorded fingerprints so a swapped or stale
// file is refused loudly at startup instead of serving wrong postings.
func openSegment(xkiPath, metaPath string, ent manifestSegment, opts diskindex.Options) (*segment, error) {
	rd, err := diskindex.Open(xkiPath, opts)
	if err != nil {
		return nil, err
	}
	if rd.MetaCRC() != ent.XKICRC {
		rd.Close() //xk:ignore errdrop the reader is being abandoned; the fingerprint mismatch is what matters
		return nil, fmt.Errorf("segidx: %s: index fingerprint %#x does not match manifest %#x", xkiPath, rd.MetaCRC(), ent.XKICRC)
	}
	meta, err := os.ReadFile(metaPath)
	if err != nil {
		rd.Close() //xk:ignore errdrop the reader is being abandoned; the read error is what matters
		return nil, err
	}
	if got := crc32.ChecksumIEEE(meta); got != ent.MetaCRC {
		rd.Close() //xk:ignore errdrop the reader is being abandoned; the fingerprint mismatch is what matters
		return nil, fmt.Errorf("segidx: %s: meta fingerprint %#x does not match manifest %#x", metaPath, got, ent.MetaCRC)
	}
	docs, tombs, err := decodeSegMeta(meta)
	if err != nil {
		rd.Close() //xk:ignore errdrop the reader is being abandoned; the decode error is what matters
		return nil, err
	}
	return &segment{id: ent.ID, rd: rd, docs: docs, tombs: tombs}, nil
}
