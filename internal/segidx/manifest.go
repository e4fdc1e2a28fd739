package segidx

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"

	"repro/internal/atomicio"
)

// The manifest is the store's single source of truth: the ordered live
// segment set (oldest first), the WAL floor (the lowest log sequence
// whose operations are NOT yet covered by a committed segment), and the
// id allocator's high-water mark. It is rewritten in full through
// atomicio.WriteFile, so the atomic rename IS the commit point of every
// flush and compaction: a kill anywhere before it leaves the previous
// manifest — and therefore the previous consistent view — in force,
// with the not-yet-referenced new files swept as garbage on reopen.
//
// File format (version 1, little endian):
//
//	magic "XKMF" | uint32 version
//	uvarint walFloor | uvarint nextID | uvarint nSegments
//	per segment: uvarint id | uvarint xkiCRC | uvarint metaCRC
//	uint32 CRC32 over everything before it
type manifest struct {
	// WALFloor is the active log's sequence at the last flush commit;
	// logs below it are fully contained in committed segments.
	WALFloor uint64
	// NextID is strictly above every id ever handed out; reopening takes
	// the max of this and the ids actually seen on disk, so a crashed
	// flush can never cause an id to be reused.
	NextID uint64
	// Segments is the live set, oldest first.
	Segments []manifestSegment
}

// manifestSegment records one live segment and the fingerprints its
// files must match at open.
type manifestSegment struct {
	ID      uint64
	XKICRC  uint32 // the .xki metadata CRC diskindex.CreateCRC reported
	MetaCRC uint32 // CRC32 of the meta sidecar's bytes
}

var manifestMagic = [4]byte{'X', 'K', 'M', 'F'}

const manifestVersion = 1

func (m *manifest) encode() []byte {
	b := make([]byte, 0, 32+16*len(m.Segments))
	b = append(b, manifestMagic[:]...)
	b = binary.LittleEndian.AppendUint32(b, manifestVersion)
	b = binary.AppendUvarint(b, m.WALFloor)
	b = binary.AppendUvarint(b, m.NextID)
	b = binary.AppendUvarint(b, uint64(len(m.Segments)))
	for _, s := range m.Segments {
		b = binary.AppendUvarint(b, s.ID)
		b = binary.AppendUvarint(b, uint64(s.XKICRC))
		b = binary.AppendUvarint(b, uint64(s.MetaCRC))
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

func decodeManifest(b []byte) (*manifest, error) {
	d := openEnvelope(b, "manifest", manifestMagic, manifestVersion)
	m := &manifest{}
	m.WALFloor = d.uvarint()
	m.NextID = d.uvarint()
	n := d.count() // each entry takes ≥ 3 bytes
	for k := uint64(0); k < n && d.err == nil; k++ {
		s := manifestSegment{ID: d.uvarint()}
		xki, meta := d.uvarint(), d.uvarint()
		if xki > 0xFFFFFFFF || meta > 0xFFFFFFFF {
			d.fail("manifest segment %d CRC exceeds 32 bits", s.ID)
		}
		if len(m.Segments) > 0 && m.Segments[len(m.Segments)-1].ID >= s.ID {
			d.fail("manifest segment ids not strictly ascending at %d", s.ID)
		}
		s.XKICRC, s.MetaCRC = uint32(xki), uint32(meta)
		m.Segments = append(m.Segments, s)
	}
	if err := d.end(); err != nil {
		return nil, err
	}
	return m, nil
}

// commitManifest atomically replaces the manifest file; its return is
// the flush/compaction commit point.
func commitManifest(path string, m *manifest) error {
	return writeFileAtomic(path, m.encode())
}

// loadManifest reads and validates the manifest; a missing file means a
// fresh store (nil manifest, no error).
func loadManifest(path string) (*manifest, error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	m, err := decodeManifest(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// writeFileAtomic commits bytes through the repo's crash-safe write
// protocol (same-directory temp, fsync, rename, directory fsync).
func writeFileAtomic(path string, b []byte) error {
	return atomicio.WriteFile(path, func(f *os.File) error {
		_, err := f.Write(b)
		return err
	})
}
