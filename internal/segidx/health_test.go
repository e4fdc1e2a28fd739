package segidx_test

import (
	"errors"
	"testing"

	"repro/internal/datagen"
	"repro/internal/kwindex"
	"repro/internal/segidx"
)

// brokenBase answers nothing and reports a failure, with no fallback.
type brokenBase struct{ *kwindex.Index }

func (brokenBase) Err() error { return errors.New("base read failed") }

// TestHealthIsWorstLayer: the store reports its base's verdict when it
// has no failure of its own, and Err stays the store's own.
func TestHealthIsWorstLayer(t *testing.T) {
	ds, err := datagen.TPCHFigure1()
	if err != nil {
		t.Fatal(err)
	}
	ix := kwindex.Build(ds.Obj)
	for _, tc := range []struct {
		name string
		base kwindex.Source
		want kwindex.Health
	}{
		{"no base", nil, kwindex.HealthOK},
		{"healthy base", ix, kwindex.HealthOK},
		{"failed base", brokenBase{ix}, kwindex.HealthUnavailable},
		{"healed base", kwindex.NewDegradedFailover(errors.New("sidecar lost"),
			func() (kwindex.Source, error) { return ix, nil }, nil), kwindex.HealthDegraded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := openStore(t, t.TempDir(), segidx.Options{Base: tc.base, NoSync: true})
			if h, err := kwindex.HealthOf(s); h != tc.want {
				t.Fatalf("health %q (%v), want %q", h, err, tc.want)
			}
			if err := s.Err(); err != nil {
				t.Fatalf("Err() = %v: the base's state is not the store's failure", err)
			}
		})
	}
}
