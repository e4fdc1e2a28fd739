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

// claims reports whether the segment owns the target object.
func (s *segment) claims(to int64) bool {
	if _, ok := s.docs[to]; ok {
		return true
	}
	return s.tombs[to]
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
	if len(b) < 12 {
		return nil, nil, fmt.Errorf("segidx: segment meta is %d bytes, too short", len(b))
	}
	if [4]byte(b[0:4]) != segMetaMagic {
		return nil, nil, fmt.Errorf("segidx: bad segment meta magic %q", b[0:4])
	}
	version := binary.LittleEndian.Uint32(b[4:])
	if version != segMetaVersion {
		return nil, nil, fmt.Errorf("segidx: segment meta version %d, want %d", version, segMetaVersion)
	}
	body, tail := b[:len(b)-4], b[len(b)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(tail); got != want {
		return nil, nil, fmt.Errorf("segidx: segment meta checksum mismatch (file corrupt)")
	}
	i := 8
	nDocs, adv := binary.Uvarint(body[i:])
	if adv <= 0 {
		return nil, nil, fmt.Errorf("segidx: malformed segment meta count at byte %d", i)
	}
	i += adv
	if nDocs > uint64(len(body)-i) { // each doc takes ≥ 1 byte
		return nil, nil, fmt.Errorf("segidx: segment meta claims %d docs in %d bytes", nDocs, len(body)-i)
	}
	docs = make(map[int64]string, nDocs)
	var prev int64
	for j := uint64(0); j < nDocs; j++ {
		d, adv := binary.Varint(body[i:])
		if adv <= 0 {
			return nil, nil, fmt.Errorf("segidx: malformed segment meta id at byte %d", i)
		}
		i += adv
		prev += d
		l, adv := binary.Uvarint(body[i:])
		if adv <= 0 {
			return nil, nil, fmt.Errorf("segidx: malformed summary length at byte %d", i)
		}
		i += adv
		if l > uint64(len(body)-i) {
			return nil, nil, fmt.Errorf("segidx: summary of %d bytes overruns meta at byte %d", l, i)
		}
		docs[prev] = string(body[i : i+int(l)])
		i += int(l)
	}
	nTombs, adv := binary.Uvarint(body[i:])
	if adv <= 0 {
		return nil, nil, fmt.Errorf("segidx: malformed segment meta count at byte %d", i)
	}
	i += adv
	if nTombs > uint64(len(body)-i) { // each id takes ≥ 1 byte
		return nil, nil, fmt.Errorf("segidx: segment meta claims %d ids in %d bytes", nTombs, len(body)-i)
	}
	tombs = make(map[int64]bool, nTombs)
	prev = 0
	for j := uint64(0); j < nTombs; j++ {
		d, adv := binary.Varint(body[i:])
		if adv <= 0 {
			return nil, nil, fmt.Errorf("segidx: malformed segment meta id at byte %d", i)
		}
		i += adv
		prev += d
		tombs[prev] = true
	}
	if i != len(body) {
		return nil, nil, fmt.Errorf("segidx: %d trailing bytes in segment meta", len(body)-i)
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
