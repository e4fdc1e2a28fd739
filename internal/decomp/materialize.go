package decomp

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/relstore"
	"repro/internal/tss"
)

// Materialize populates one connection relation per fragment from the
// target-object graph and applies the decomposition's physical design.
// A tuple is added per subgraph of the fragment's type (§5): one walk of
// distinct target objects following the fragment's steps. Column i binds
// the i-th segment of the walk; columns are named "t0", "t1", ....
//
// A two-step MVD fragment x – h – y clustered both ways is stored by its
// factors, the x – h and h – y edges (relstore.Relation.FillFactors):
// its rows are every pairing of h's neighbours on the two sides, and
// their number grows with the square of h's degree. It reads, and is
// charged, as the materialized relation would be. Every other fragment,
// a longer MVD walk included, is materialized by walking the graph.
//
// The relations are created in fragment order, so a repeated fragment
// fails on its first repetition; then GOMAXPROCS goroutines fill, sort
// and index them, one relation at a time each. Every relation is built
// from the object graph alone, so the result does not depend on the
// schedule.
func Materialize(s *relstore.Store, og *tss.ObjectGraph, d *Decomposition) error {
	rels := make([]*relstore.Relation, len(d.Fragments))
	for i, f := range d.Fragments {
		cols := make([]string, f.Size()+1)
		for c := range cols {
			cols[c] = fmt.Sprintf("t%d", c)
		}
		rel, err := s.CreateRelation(f.RelationName(), cols)
		if err != nil {
			return err
		}
		rels[i] = rel
	}
	errs := make([]error, len(rels))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(rels)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(rels); i = int(next.Add(1) - 1) {
				errs[i] = buildRelation(rels[i], og, d.Fragments[i], d.Physical)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// buildRelation fills rel with the fragment's subgraphs and applies the
// physical design.
func buildRelation(rel *relstore.Relation, og *tss.ObjectGraph, f Fragment, phys Physical) error {
	if f.Size() == 2 && phys.ClusterBothDirections && f.HasMVD(og.TSS) {
		steps := f.Steps()
		in := Step{EdgeID: steps[1].EdgeID, Dir: steps[1].Dir.flip()}
		if err := rel.FillFactors(stepPairs(og, steps[0]), stepPairs(og, in)); err != nil {
			return err
		}
	} else if err := walkRelation(rel, og, f.Steps(), phys); err != nil {
		return err
	}
	if phys.HashIndexes {
		rel.BuildAllHashIndexes()
	}
	return nil
}

// walkRelation fills rel with every walk of the steps — a count pass,
// then a fill pass into storage of exactly that size — and sorts it.
func walkRelation(rel *relstore.Relation, og *tss.ObjectGraph, steps []Step, phys Physical) error {
	arity := rel.Arity()
	w := &walker{og: og, steps: steps, row: make([]int64, arity)}
	starts := og.BySegment(stepFrom(og.TSS, w.steps[0]))
	for _, to := range starts {
		w.walk(0, to)
	}
	w.out, w.n = make([]int64, w.n*arity), 0
	for _, to := range starts {
		w.walk(0, to)
	}
	if err := rel.Fill(w.out); err != nil {
		return err
	}
	if !phys.ClusterBothDirections {
		return nil
	}
	fwd := make([]int, arity)
	bwd := make([]int, arity)
	for i := range fwd {
		fwd[i] = i
		bwd[i] = arity - 1 - i
	}
	if err := rel.Cluster(fwd...); err != nil {
		return err
	}
	if arity > 1 {
		return rel.AddOrdering(bwd...)
	}
	return nil
}

// stepPairs returns one flat (from, to) pair per object edge a walk
// can take along the step: the one-step walks, repeated for parallel
// edges.
func stepPairs(og *tss.ObjectGraph, st Step) []int64 {
	var out []int64
	for _, from := range og.BySegment(stepFrom(og.TSS, st)) {
		if st.Dir == Fwd {
			for _, oe := range og.Out(from) {
				if oe.EdgeID == st.EdgeID {
					out = append(out, from, oe.To)
				}
			}
		} else {
			for _, oe := range og.In(from) {
				if oe.EdgeID == st.EdgeID {
					out = append(out, from, oe.From)
				}
			}
		}
	}
	return out
}

// walker enumerates the subgraphs of one fragment's type in a fixed
// order: every walk of distinct target objects that follows the steps.
// With out nil it only counts them; otherwise it writes walk n to row n
// of out.
type walker struct {
	og    *tss.ObjectGraph
	steps []Step
	row   []int64 // the walk so far
	out   []int64
	n     int // walks found
}

func (w *walker) walk(pos int, at int64) {
	// Distinctness: a subgraph has distinct nodes, so a walk that
	// revisits one is cut here rather than at its end.
	for _, v := range w.row[:pos] {
		if v == at {
			return
		}
	}
	w.row[pos] = at
	if pos == len(w.steps) {
		if w.out != nil {
			copy(w.out[w.n*len(w.row):], w.row)
		}
		w.n++
		return
	}
	st := w.steps[pos]
	if st.Dir == Fwd {
		for _, oe := range w.og.Out(at) {
			if oe.EdgeID == st.EdgeID {
				w.walk(pos+1, oe.To)
			}
		}
	} else {
		for _, oe := range w.og.In(at) {
			if oe.EdgeID == st.EdgeID {
				w.walk(pos+1, oe.From)
			}
		}
	}
}

// SpaceReport summarizes a materialized decomposition: per-fragment
// cardinalities — the space/performance tradeoff data of §5.1.
type SpaceReport struct {
	Name       string
	Fragments  int
	TotalRows  int
	TotalPages int
	PerFrag    []FragRows
}

// FragRows pairs a fragment with its relation cardinality and class.
type FragRows struct {
	Fragment string
	Class    Class
	Rows     int
}

// Report computes a SpaceReport for a materialized decomposition.
func Report(s *relstore.Store, tg *tss.Graph, d *Decomposition) SpaceReport {
	rep := SpaceReport{Name: d.Name, Fragments: len(d.Fragments)}
	for _, f := range d.Fragments {
		rel := s.Relation(f.RelationName())
		if rel == nil {
			continue
		}
		rep.TotalRows += rel.NumRows()
		rep.TotalPages += rel.NumPages()
		rep.PerFrag = append(rep.PerFrag, FragRows{
			Fragment: f.String(tg),
			Class:    f.Classify(tg),
			Rows:     rel.NumRows(),
		})
	}
	return rep
}
