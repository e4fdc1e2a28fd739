package persist_test

import (
	"bytes"
	"encoding/gob"
	"testing"

	"repro/internal/datagen"
	"repro/internal/persist"
)

// FuzzLoad asserts the snapshot decoder never panics: any input is
// either a loadable system or an error.
func FuzzLoad(f *testing.F) {
	var snap bytes.Buffer
	if err := persist.Save(&snap, loadFig1(f), datagen.TPCHSpec()); err != nil {
		f.Fatal(err)
	}
	var future bytes.Buffer
	if err := gob.NewEncoder(&future).Encode(&struct{ Version int }{Version: 99}); err != nil {
		f.Fatal(err)
	}
	f.Add(snap.Bytes())
	f.Add(snap.Bytes()[:snap.Len()/2])
	f.Add(future.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		restored, err := persist.Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if restored.Obj == nil || restored.Store == nil || restored.Index == nil {
			t.Fatal("loaded system is incomplete")
		}
	})
}
