package segidx

import (
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"
)

// encodeSegMetaV1 reproduces the version-1 meta layout (claims and
// tombstones, no summaries): the bytes a pre-summary build wrote.
func encodeSegMetaV1(ids []int64, tombs []int64) []byte {
	b := append([]byte(nil), segMetaMagic[:]...)
	b = binary.LittleEndian.AppendUint32(b, 1)
	b = binary.AppendUvarint(b, uint64(len(ids)))
	var prev int64
	for _, to := range ids {
		b = binary.AppendVarint(b, to-prev)
		prev = to
	}
	b = binary.AppendUvarint(b, uint64(len(tombs)))
	prev = 0
	for _, to := range tombs {
		b = binary.AppendVarint(b, to-prev)
		prev = to
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

func TestSegMetaRoundTripV2(t *testing.T) {
	docs := map[int64]string{
		5:    "person[name=Anna nation=US]",
		42:   "",
		1000: "part[key=1005 name=TV]",
	}
	tombs := map[int64]bool{7: true, 900: true}
	gotDocs, gotTombs, err := decodeSegMeta(encodeSegMeta(docs, tombs))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotDocs, docs) {
		t.Fatalf("docs did not round-trip:\ngot  %v\nwant %v", gotDocs, docs)
	}
	if !reflect.DeepEqual(gotTombs, tombs) {
		t.Fatalf("tombs did not round-trip:\ngot  %v\nwant %v", gotTombs, tombs)
	}
}

// TestSegMetaRefusesV1 feeds the decoder bytes in the pre-summary
// version-1 layout, whose read path is gone: the segment must be
// refused with an error that names the version, not decoded.
func TestSegMetaRefusesV1(t *testing.T) {
	_, _, err := decodeSegMeta(encodeSegMetaV1([]int64{3, 17, 400}, []int64{9}))
	if err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("v1 meta: err = %v, want a refusal naming version 1", err)
	}
}

func TestSegMetaRejectsCorruption(t *testing.T) {
	good := encodeSegMeta(map[int64]string{1: "x"}, nil)
	for name, mutate := range map[string]func([]byte) []byte{
		"flipped-byte": func(b []byte) []byte { b[len(b)/2] ^= 0xff; return b },
		"truncated":    func(b []byte) []byte { return b[:len(b)-5] },
		"bad-magic":    func(b []byte) []byte { b[0] = 'Z'; return b },
		"future-version": func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:], 99)
			// Recompute the CRC so only the version is at fault.
			body := b[:len(b)-4]
			binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(body))
			return b
		},
	} {
		raw := mutate(append([]byte(nil), good...))
		if _, _, err := decodeSegMeta(raw); err == nil {
			t.Errorf("%s: decodeSegMeta accepted corrupt meta", name)
		}
	}
}

// TestSegMetaTruncatesOversizedSummary pins the size guard: a summary
// past maxSummaryBytes is stored truncated, not rejected.
func TestSegMetaTruncatesOversizedSummary(t *testing.T) {
	big := make([]byte, maxSummaryBytes+100)
	for i := range big {
		big[i] = 'a'
	}
	docs, _, err := decodeSegMeta(encodeSegMeta(map[int64]string{1: string(big)}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(docs[1]) != maxSummaryBytes {
		t.Fatalf("stored summary is %d bytes, want truncation to %d", len(docs[1]), maxSummaryBytes)
	}
}
