package segidx

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// storeFiles writes a small store the way the store tests do — documents
// with summaries, a replacement and a delete, two flushes — and returns
// the bytes of its segment metas and of its manifest.
func storeFiles(f *testing.F) (metas [][]byte, manifest []byte) {
	f.Helper()
	s, err := Open(f.TempDir(), Options{NoSync: true})
	if err != nil {
		f.Fatal(err)
	}
	defer s.Close()
	add := func(to int64, value string) {
		d := Document{TO: to, Fields: []Field{{Node: 0, SchemaNode: "name", Label: "name", Value: value}}}
		if err := s.Add(d); err != nil {
			f.Fatal(err)
		}
	}
	add(1, "John")
	add(2, "John")
	if err := s.Flush(); err != nil {
		f.Fatal(err)
	}
	add(1, "Mary")
	if err := s.Delete(2); err != nil {
		f.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		f.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(s.dir, "seg-*.meta"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no segment metas written (%v)", err)
	}
	for _, p := range append(paths, s.manifestPath()) {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		metas = append(metas, b)
	}
	return metas[:len(paths)], metas[len(paths)]
}

// seedDamaged adds b and its truncated, bit-flipped and garbage variants.
func seedDamaged(f *testing.F, b []byte) {
	f.Add(b)
	f.Add(b[:len(b)-3])
	f.Add(b[:9])
	flipped := append([]byte(nil), b...)
	flipped[len(flipped)/2] ^= 0x20
	f.Add(flipped)
}

// FuzzDecodeSegMeta drives the segment-meta decoder with arbitrary
// bytes: it must never panic, and whatever it accepts must survive an
// encode/decode round trip unchanged.
func FuzzDecodeSegMeta(f *testing.F) {
	metas, _ := storeFiles(f)
	for _, b := range metas {
		seedDamaged(f, b)
	}
	f.Add([]byte("XKS1 not a segment meta"))
	f.Fuzz(func(t *testing.T, data []byte) {
		docs, tombs, err := decodeSegMeta(data)
		if err != nil {
			return
		}
		for _, sum := range docs {
			if len(sum) > maxSummaryBytes {
				return // the encoder truncates it: no round trip to check
			}
		}
		docs2, tombs2, err := decodeSegMeta(encodeSegMeta(docs, tombs))
		if err != nil {
			t.Fatalf("accepted meta does not re-encode: %v", err)
		}
		if !reflect.DeepEqual(docs2, docs) || !reflect.DeepEqual(tombs2, tombs) {
			t.Fatal("accepted meta changes across re-encode")
		}
	})
}

// FuzzDecodeManifest drives the store manifest decoder with arbitrary
// bytes: it must never panic, and whatever it accepts must survive an
// encode/decode round trip unchanged.
func FuzzDecodeManifest(f *testing.F) {
	_, man := storeFiles(f)
	seedDamaged(f, man)
	f.Add([]byte("XKMF not a manifest"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(data)
		if err != nil {
			return
		}
		m2, err := decodeManifest(m.encode())
		if err != nil {
			t.Fatalf("accepted manifest does not re-encode: %v", err)
		}
		if !reflect.DeepEqual(m2, m) {
			t.Fatalf("accepted manifest changes across re-encode: %+v, then %+v", m, m2)
		}
	})
}
