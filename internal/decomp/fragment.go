// Package decomp implements XKeyword's TSS graph decompositions (paper
// §5): fragments — walks over (unfolded) TSS graphs — that materialize
// into connection relations, the MVD classification of Theorem 5.3, the
// useless-fragment rules, CTSSN covering under a join budget B, the
// decomposition algorithm of Figure 12, and the decomposition presets
// compared in the experiments (§7).
package decomp

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/tss"
)

// Dir is the traversal direction of a TSS edge inside a fragment walk.
type Dir uint8

const (
	// Fwd traverses the edge From -> To.
	Fwd Dir = iota
	// Bwd traverses the edge To -> From.
	Bwd
)

func (d Dir) flip() Dir {
	if d == Fwd {
		return Bwd
	}
	return Fwd
}

// Step is one hop of a fragment walk.
type Step struct {
	EdgeID int
	Dir    Dir
}

// Fragment is a walk over the TSS graph (possibly revisiting segments —
// the unfolded-graph fragments of Definition 5.2). Fragments are
// canonicalized at construction: a walk and its reverse denote the same
// fragment. The canonical key and the connection relation's name are
// derived once, at construction: the optimizer and the executor ask for
// them on every plan step.
type Fragment struct {
	steps []Step
	key   string
	rel   string
}

// NewFragment canonicalizes and validates a walk: consecutive steps must
// share the segment they meet at.
func NewFragment(tg *tss.Graph, steps []Step) (Fragment, error) {
	if len(steps) == 0 {
		return Fragment{}, fmt.Errorf("decomp: empty fragment")
	}
	for i, s := range steps {
		if s.EdgeID < 0 || s.EdgeID >= tg.NumEdges() {
			return Fragment{}, fmt.Errorf("decomp: step %d: unknown edge %d", i, s.EdgeID)
		}
		if s.Dir != Fwd && s.Dir != Bwd {
			return Fragment{}, fmt.Errorf("decomp: step %d: unknown direction %d", i, s.Dir)
		}
		if i > 0 {
			if stepTo(tg, steps[i-1]) != stepFrom(tg, s) {
				return Fragment{}, fmt.Errorf("decomp: steps %d and %d do not meet", i-1, i)
			}
		}
	}
	f := Fragment{steps: append([]Step(nil), steps...)}
	rev := f.reversedSteps()
	var fb, rb [64]byte
	key, rkey := appendStepsKey(fb[:0], f.steps), appendStepsKey(rb[:0], rev)
	if bytes.Compare(rkey, key) < 0 {
		f.steps, key = rev, rkey
	}
	f.key = string(key)
	for i, c := range key {
		if c == '.' {
			key[i] = '_'
		}
	}
	f.rel = "CR_" + string(key[:len(key)-1])
	return f, nil
}

// MustFragment is NewFragment panicking on error, for tests and tables.
func MustFragment(tg *tss.Graph, steps ...Step) Fragment {
	f, err := NewFragment(tg, steps)
	if err != nil {
		panic(err)
	}
	return f
}

// stepFrom returns the segment a step starts at.
func stepFrom(tg *tss.Graph, s Step) string {
	e := tg.Edge(s.EdgeID)
	if s.Dir == Fwd {
		return e.From
	}
	return e.To
}

// stepTo returns the segment a step ends at.
func stepTo(tg *tss.Graph, s Step) string {
	e := tg.Edge(s.EdgeID)
	if s.Dir == Fwd {
		return e.To
	}
	return e.From
}

// stepExpanding reports whether traversing the step may fan out (one
// source instance, many target instances).
func stepExpanding(tg *tss.Graph, s Step) bool {
	e := tg.Edge(s.EdgeID)
	if s.Dir == Fwd {
		return e.ForwardMany
	}
	return e.BackwardMany
}

// Size returns the fragment's size in TSS edges.
func (f Fragment) Size() int { return len(f.steps) }

// Steps returns a copy of the canonical step sequence.
func (f Fragment) Steps() []Step { return append([]Step(nil), f.steps...) }

func (f Fragment) reversedSteps() []Step {
	out := make([]Step, len(f.steps))
	for i, s := range f.steps {
		out[len(f.steps)-1-i] = Step{EdgeID: s.EdgeID, Dir: s.Dir.flip()}
	}
	return out
}

// appendStepsKey appends "e<edge><f|b>." per step.
func appendStepsKey(dst []byte, steps []Step) []byte {
	for _, s := range steps {
		d := byte('f')
		if s.Dir == Bwd {
			d = 'b'
		}
		dst = append(dst, 'e')
		dst = strconv.AppendInt(dst, int64(s.EdgeID), 10)
		dst = append(dst, d, '.')
	}
	return dst
}

// Key returns the fragment's canonical identity, "e3f.e1b." for a walk
// forward over edge 3 then backward over edge 1.
func (f Fragment) Key() string { return f.key }

// RelationName returns the connection relation name for this fragment,
// "CR_e3f_e1b" for the walk above.
func (f Fragment) RelationName() string { return f.rel }

// Segments returns the walk's segment sequence (length Size()+1).
func (f Fragment) Segments(tg *tss.Graph) []string {
	out := []string{stepFrom(tg, f.steps[0])}
	for _, s := range f.steps {
		out = append(out, stepTo(tg, s))
	}
	return out
}

// String renders the fragment, e.g. "person>order>lineitem".
func (f Fragment) String(tg *tss.Graph) string {
	var sb strings.Builder
	sb.WriteString(stepFrom(tg, f.steps[0]))
	for _, s := range f.steps {
		if s.Dir == Fwd {
			sb.WriteString(">")
		} else {
			sb.WriteString("<")
		}
		sb.WriteString(stepTo(tg, s))
	}
	return sb.String()
}

// HasMVD implements Theorem 5.3: a fragment has a non-trivial multivalued
// dependency iff some interior segment is entered by a contracting step
// and left by an expanding step — the walk branches out independently on
// both sides of that segment (the O of the PaLOLPa example, Figure 10).
func (f Fragment) HasMVD(tg *tss.Graph) bool {
	for i := 0; i+1 < len(f.steps); i++ {
		// leftMany: from the interior node, the reverse of step i fans out.
		leftMany := stepExpanding(tg, Step{EdgeID: f.steps[i].EdgeID, Dir: f.steps[i].Dir.flip()})
		rightMany := stepExpanding(tg, f.steps[i+1])
		if leftMany && rightMany {
			return true
		}
	}
	return false
}

// Class labels a fragment's normal form (§5.1).
type Class uint8

const (
	// Class4NF: single-edge fragments are always in 4NF.
	Class4NF Class = iota
	// ClassInlined: multi-edge fragments without MVDs ("inlined").
	ClassInlined
	// ClassMVD: fragments whose relation has a non-trivial MVD.
	ClassMVD
)

// String names the class.
func (c Class) String() string {
	switch c {
	case Class4NF:
		return "4NF"
	case ClassInlined:
		return "inlined"
	default:
		return "MVD"
	}
}

// Classify returns the fragment's normal-form class.
func (f Fragment) Classify(tg *tss.Graph) Class {
	if f.HasMVD(tg) {
		return ClassMVD
	}
	if len(f.steps) == 1 {
		return Class4NF
	}
	return ClassInlined
}

// IsUseless implements the two useless-fragment rules of §5:
//
//  1. A walk that leaves an interior segment on both sides through the
//     same to-one choice prefix can never connect two distinct target
//     objects (children of a choice node never connect through it) —
//     the PaLPr example. The same holds for leaving twice through one
//     to-one edge.
//  2. A walk that enters an interior segment from both sides through
//     paths with no reference edge (T1 -> T <- T2, l1 != ref, l2 != ref)
//     is impossible: the segment's containment ancestry is unique.
func (f Fragment) IsUseless(tg *tss.Graph) bool {
	for i := 0; i+1 < len(f.steps); i++ {
		a, b := f.steps[i], f.steps[i+1]
		ea, eb := tg.Edge(a.EdgeID), tg.Edge(b.EdgeID)
		// Pattern <-X->: both edges leave the interior segment.
		if a.Dir == Bwd && b.Dir == Fwd {
			if ea.ChoicePrefix != "" && ea.ChoicePrefix == eb.ChoicePrefix {
				return true
			}
			if a.EdgeID == b.EdgeID && !ea.ForwardMany {
				return true
			}
		}
		// Pattern ->X<-: both edges enter the interior segment.
		if a.Dir == Fwd && b.Dir == Bwd {
			if !ea.BackwardMany && !eb.BackwardMany {
				return true
			}
		}
	}
	return false
}
