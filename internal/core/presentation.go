package core

import (
	"repro/internal/decomp"
	"repro/internal/exec"
	"repro/internal/presentation"
)

// PresentationSession creates a presentation-graph session over this
// system. fragments selects the connection relations the on-demand
// queries may probe (nil = the system's whole decomposition); the §7
// expansion experiment compares the minimal, inlined and combined
// fragment sets this way. The session memoizes its lookups in a fresh
// unbounded LookupCache, since expansions repeat probes.
func (s *System) PresentationSession(fragments []decomp.Fragment) *presentation.Session {
	var fallback []decomp.Fragment
	if fragments == nil {
		fragments = s.Decomp.Fragments
	} else {
		fallback = s.Decomp.Fragments
	}
	return &presentation.Session{
		TSS:       s.TSS,
		Obj:       s.Obj,
		Store:     s.Store,
		Index:     s.Index,
		Stats:     s.Stats,
		Fragments: fragments,
		Fallback:  fallback,
		Cache:     exec.NewLookupCache(0),
	}
}

// MinimalFragments returns the single-edge fragments of the system's
// decomposition (the minimal probe set of Figure 16(b)).
func (s *System) MinimalFragments() []decomp.Fragment {
	var out []decomp.Fragment
	for _, f := range s.Decomp.Fragments {
		if f.Size() == 1 {
			out = append(out, f)
		}
	}
	return out
}

// InlinedFragments returns the multi-edge fragments of the system's
// decomposition (the inlined probe set of Figure 16(b)).
func (s *System) InlinedFragments() []decomp.Fragment {
	var out []decomp.Fragment
	for _, f := range s.Decomp.Fragments {
		if f.Size() > 1 {
			out = append(out, f)
		}
	}
	return out
}
