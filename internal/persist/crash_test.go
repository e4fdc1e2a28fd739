package persist_test

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/fault"
	"repro/internal/persist"
)

// TestKillMidSaveLeavesPreviousGenerationLoadable simulates the process
// dying at assorted points while SaveFile streams the snapshot, and
// asserts the previous generation keeps loading and answering queries —
// the whole point of the temp-file + rename protocol.
func TestKillMidSaveLeavesPreviousGenerationLoadable(t *testing.T) {
	sys := loadFig1(t)
	spec := datagen.TPCHSpec()
	path := filepath.Join(t.TempDir(), "snap.xkdb")
	if err := persist.SaveFile(path, sys, spec); err != nil {
		t.Fatal(err)
	}
	want, err := sys.QueryAll([]string{"john", "vcr"})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("probe query returned nothing; test is vacuous")
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	for _, cut := range []int64{0, 1, st.Size() / 2, st.Size() - 1} {
		restore := persist.SetSaveWriter(func(f *os.File) io.Writer {
			return fault.LimitWriter(f, cut)
		})
		err := persist.SaveFile(path, sys, spec)
		restore()
		if !errors.Is(err, fault.ErrCrash) {
			t.Fatalf("cut %d: SaveFile err = %v, want ErrCrash", cut, err)
		}
		for _, opts := range []persist.LoadOptions{
			{DiskIndex: true},
			{DiskIndex: true, SelfHeal: true},
		} {
			restored, err := persist.LoadFileOpts(path, opts)
			if err != nil {
				t.Fatalf("cut %d, opts %+v: previous generation unloadable: %v", cut, opts, err)
			}
			got, err := restored.QueryAll([]string{"john", "vcr"})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("cut %d: %d results, want %d", cut, len(got), len(want))
			}
			for i := range got {
				if got[i].Key() != want[i].Key() {
					t.Fatalf("cut %d: result %d differs after crash-recovery load", cut, i)
				}
			}
		}
	}
}

// TestSelfHealQuarantinesCorruptSidecar corrupts the sidecar's posting
// region on disk and asserts a SelfHeal load still answers correctly —
// from the quarantined-and-rebuilt in-memory index — while a plain
// DiskIndex load of a sidecar with a wrong fingerprint stays a hard
// error rather than a silently wrong answer.
func TestSelfHealQuarantinesCorruptSidecar(t *testing.T) {
	sys := loadFig1(t)
	spec := datagen.TPCHSpec()
	path := filepath.Join(t.TempDir(), "snap.xkdb")
	if err := persist.SaveFile(path, sys, spec); err != nil {
		t.Fatal(err)
	}
	// Truncating the sidecar makes Open reject it outright.
	side := persist.SidecarPath(path)
	b, err := os.ReadFile(side)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(side, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := persist.LoadFileOpts(path, persist.LoadOptions{DiskIndex: true}); err == nil {
		t.Fatal("plain DiskIndex load accepted a truncated sidecar")
	}

	var degradedWith error
	restored, err := persist.LoadFileOpts(path, persist.LoadOptions{
		DiskIndex: true,
		SelfHeal:  true,
		OnDegrade: func(cause error) { degradedWith = cause },
	})
	if err != nil {
		t.Fatalf("SelfHeal load failed: %v", err)
	}
	if degradedWith == nil {
		t.Fatal("OnDegrade not called for a truncated sidecar")
	}
	if _, err := os.Stat(side); !os.IsNotExist(err) {
		t.Fatal("corrupt sidecar not quarantined away from its path")
	}
	want, err := sys.QueryAll([]string{"john", "vcr"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.QueryAll([]string{"john", "vcr"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("degraded load answered %d results, want %d (nonzero)", len(got), len(want))
	}
}

// TestSelfHealReportsDegraded: a SelfHeal load that abandons a
// truncated sidecar serves from a rebuilt index, and the health verdict
// must say so — degraded, naming the cause — rather than ok.
func TestSelfHealReportsDegraded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.xkdb")
	if err := persist.SaveFile(path, loadFig1(t), datagen.TPCHSpec()); err != nil {
		t.Fatal(err)
	}
	side := persist.SidecarPath(path)
	b, err := os.ReadFile(side)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(side, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	restored, err := persist.LoadFileOpts(path, persist.LoadOptions{DiskIndex: true, SelfHeal: true})
	if err != nil {
		t.Fatal(err)
	}
	if h, err := restored.IndexHealthState(); h != core.IndexDegraded || err == nil {
		t.Fatalf("SelfHeal load of a truncated sidecar: health %q (%v), want degraded with a cause", h, err)
	}
}
