package decomp

import (
	"fmt"

	"repro/internal/relstore"
	"repro/internal/tss"
)

// MaterializeWalked is Materialize with every fragment walked into a
// materialized relation, the two-step MVD fragments included: the form
// the factorized relations are tested against.
func MaterializeWalked(s *relstore.Store, og *tss.ObjectGraph, d *Decomposition) error {
	for _, f := range d.Fragments {
		cols := make([]string, f.Size()+1)
		for c := range cols {
			cols[c] = fmt.Sprintf("t%d", c)
		}
		rel, err := s.CreateRelation(f.RelationName(), cols)
		if err != nil {
			return err
		}
		if err := walkRelation(rel, og, f.Steps(), d.Physical); err != nil {
			return err
		}
		if d.Physical.HashIndexes {
			rel.BuildAllHashIndexes()
		}
	}
	return nil
}
