package shard_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/shard"
)

// FuzzLoadManifest drives shard.LoadManifest with arbitrary manifest
// files: it must never panic, and a manifest it accepts must survive a
// WriteManifest/LoadManifest round trip unchanged. Seeds are the
// manifests the split and round-trip tests write, plus damaged copies.
func FuzzLoadManifest(f *testing.F) {
	split := f.TempDir()
	if _, err := shard.Split(fig1Index(f), split, 3, shard.SplitOptions{}); err != nil {
		f.Fatal(err)
	}
	written := f.TempDir()
	if err := shard.WriteManifest(written, &shard.Manifest{
		Version: 1,
		Scheme:  shard.HashScheme,
		N:       2,
		Shards: []shard.ShardInfo{
			{ID: 0, Dir: "shard-000", Index: "index.xki", CRC: 0xdeadbeef, Postings: 3, Keywords: 2, Addrs: []string{"http://a1", "http://a2"}},
			{ID: 1, Dir: "shard-001", Index: "index.xki", CRC: 0xcafef00d, Postings: 4, Keywords: 2, Addrs: []string{"http://b1"}},
		},
	}); err != nil {
		f.Fatal(err)
	}
	for _, dir := range []string{split, written} {
		b, err := os.ReadFile(filepath.Join(dir, shard.ManifestName))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)-5])
		flipped := append([]byte(nil), b...)
		flipped[len(flipped)-2] ^= 0x40
		f.Add(flipped)
	}
	f.Add([]byte("XKSHARDS1 00000000\n{}"))
	f.Add([]byte("XKWHAT 00000000\n{}"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, shard.ManifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := shard.LoadManifest(dir)
		if err != nil {
			return
		}
		again := t.TempDir()
		if err := shard.WriteManifest(again, m); err != nil {
			t.Fatal(err)
		}
		m2, err := shard.LoadManifest(again)
		if err != nil {
			t.Fatalf("accepted manifest does not reload after a rewrite: %v", err)
		}
		if !reflect.DeepEqual(m2, m) {
			t.Fatalf("accepted manifest changes across a rewrite: %+v, then %+v", m, m2)
		}
	})
}
