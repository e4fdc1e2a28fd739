package exec

import (
	"context"
	"fmt"

	"repro/internal/optimizer"
	"repro/internal/relstore"
)

// EvaluateHash evaluates a plan bottom-up with full scans and hash
// joins: each piece's relation is scanned once (filtered by the keyword
// sets), then intermediate results are hash-joined in plan order. With
// small relations this is the fastest way to produce ALL results of a
// CN — the §7 finding that makes MinNClustNIndx win Figure 15(b).
func (ex *Executor) EvaluateHash(p *optimizer.Plan, emit func(Result) bool) error {
	return ex.EvaluateHashContext(context.Background(), p, emit)
}

// EvaluateHashContext is EvaluateHash with cooperative cancellation: the
// scan and join loops poll ctx periodically, so a cancelled context
// stops the evaluation between tuples and the call returns ctx's error.
func (ex *Executor) EvaluateHashContext(ctx context.Context, p *optimizer.Plan, emit func(Result) bool) error {
	if len(p.Steps) == 0 {
		return fmt.Errorf("exec: empty plan")
	}
	cc := newCancelCheck(ctx)
	if cc.err != nil {
		return cc.err
	}
	// Intermediate result: tuples of bindings over a growing occurrence
	// set, stored as slices aligned with boundOccs.
	var boundOccs []int
	var tuples [][]int64

	occPos := func(occ int) int {
		for i, o := range boundOccs {
			if o == occ {
				return i
			}
		}
		return -1
	}

	for _, s := range p.Steps {
		if s.Seed {
			var next [][]int64
			for _, to := range p.SortedFilter(s.Occ) {
				next = append(next, []int64{to})
			}
			boundOccs = []int{s.Occ}
			tuples = next
			continue
		}
		if s.Rel == nil {
			return fmt.Errorf("exec: relation %s not materialized", s.Piece.Frag.RelationName())
		}
		// Scan and pre-filter the piece's rows (views into the store).
		var rows []relstore.Row
		s.Rel.Scan(func(row relstore.Row) bool {
			if cc.tick() {
				return false
			}
			for pos, occ := range s.Piece.Occs {
				if f := p.Filters[occ]; f != nil && !f[row[pos]] {
					return true
				}
			}
			rows = append(rows, row)
			return true
		})
		if cc.err != nil {
			return cc.err
		}
		// Hash rows on the probe column.
		ht := make(map[int64][]relstore.Row, len(rows))
		for _, row := range rows {
			ht[row[s.ProbePos]] = append(ht[row[s.ProbePos]], row)
		}
		probeOcc := s.Piece.Occs[s.ProbePos]
		probeIdx := occPos(probeOcc)
		if probeIdx < 0 {
			return fmt.Errorf("exec: hash join piece not connected")
		}
		newOccs := append([]int(nil), boundOccs...)
		for _, pos := range s.NewPos {
			newOccs = append(newOccs, s.Piece.Occs[pos])
		}
		var next [][]int64
		for _, t := range tuples {
			if cc.tick() {
				return cc.err
			}
			for _, row := range ht[t[probeIdx]] {
				ok := true
				for _, pos := range s.CheckPos {
					if ci := occPos(s.Piece.Occs[pos]); ci < 0 || t[ci] != row[pos] {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				nt := append(append([]int64(nil), t...), make([]int64, len(s.NewPos))...)
				for i, pos := range s.NewPos {
					nt[len(t)+i] = row[pos]
				}
				// Distinct target objects across the tree.
				if hasDup(nt) {
					continue
				}
				next = append(next, nt)
			}
		}
		boundOccs = newOccs
		tuples = next
	}
	for _, t := range tuples {
		if cc.now() {
			return cc.err
		}
		bind := make([]int64, len(p.Net.Occs))
		for i, occ := range boundOccs {
			bind[occ] = t[i]
		}
		if !emit(Result{Net: p.Net, Bind: bind, Score: p.Net.Score()}) {
			return nil
		}
	}
	return cc.err
}

func hasDup(xs []int64) bool {
	for i := range xs {
		for j := i + 1; j < len(xs); j++ {
			if xs[i] == xs[j] {
				return true
			}
		}
	}
	return false
}

// Strategy selects an evaluation algorithm.
type Strategy uint8

const (
	// NestedLoop probes connection relations per binding (top-k friendly).
	NestedLoop Strategy = iota
	// HashJoin scans each relation once and joins in memory (full-result
	// friendly on unindexed decompositions).
	HashJoin
	// AutoStrategy picks HashJoin when no relation of the plan has an
	// index or clustering, NestedLoop otherwise — the choice a DBMS
	// optimizer would make (§7).
	AutoStrategy
)

// Run evaluates with the chosen strategy.
func (ex *Executor) Run(p *optimizer.Plan, s Strategy, emit func(Result) bool) error {
	return ex.RunContext(context.Background(), p, s, emit)
}

// RunContext is Run with cooperative cancellation (see EvaluateContext).
func (ex *Executor) RunContext(ctx context.Context, p *optimizer.Plan, s Strategy, emit func(Result) bool) error {
	if s == AutoStrategy {
		s = NestedLoop
		if !ex.planIndexed(p) {
			s = HashJoin
		}
	}
	if s == HashJoin {
		return ex.EvaluateHashContext(ctx, p, emit)
	}
	return ex.EvaluateContext(ctx, p, emit)
}

// planIndexed reports whether any piece relation offers an index or a
// clustered order on its probe column.
func (ex *Executor) planIndexed(p *optimizer.Plan) bool {
	for _, s := range p.Steps {
		if s.Seed {
			continue
		}
		if s.Rel != nil && s.Probe.Path() != relstore.PathScan {
			return true
		}
	}
	return false
}
