package relstore

import (
	"cmp"
	"fmt"
	"slices"
)

// factors is the storage of a factorized relation (FillFactors): the
// rows (x, h, y) of side 0's (x, h) pairs joined with side 1's (y, h)
// pairs on their hub h, less the rows whose two ends are one value. A
// row stands once for every combination of parallel pairs it joins.
type factors struct {
	hubs  []int64 // the hubs of either side, ascending
	sides [2]side
	// hashed marks the columns hash-indexed. Only the hub column's
	// index is ever probed, as a hash index on the primary would be: a
	// sorted copy leads with each end column, and Access prefers it.
	hashed [3]bool
}

// side is one factor: its distinct (end, hub) pairs.
type side struct {
	pairs []pair // in (end, hub) order
	// off[p] is where pair p's rows start in the sorted copy this side's
	// end leads: the primary (0, 1, 2) for side 0, the ordering (2, 1, 0)
	// for side 1. off[len(pairs)] is the relation's cardinality.
	off []int64
	// byHub lists the pairs in (hub, end) order: hub k's pairs are
	// byHub[hubAt[k]:hubAt[k+1]], and kids repeats their ends in that
	// order, for the other side's joins to read a hub's ends in a row.
	byHub []int32
	hubAt []int32
	kids  []kid
}

// pair is one distinct (end, hub) pair, with the number of times it was
// given. Its fields share a cache line, since a probe reads them
// together; the hub is an index into factors.hubs.
type pair struct {
	end  int64
	hub  int32
	mult int32
}

// kid is one end of a hub, with its pair's multiplicity.
type kid struct {
	end  int64
	mult int32
}

// FillFactors gives a three-column relation the rows (x, h, y) of every
// left pair (x, h) and right pair (y, h) that meet at a hub h, with x, h
// and y distinct: the two-step walks x – h – y of an MVD fragment
// (Theorem 5.3), stored by their two factors instead of as their
// product. left and right are flat (end, hub) pairs, one per edge; a
// pair given twice is a parallel edge and its rows count twice, and a
// pair whose end is its hub is dropped.
//
// The relation reads as Fill of those rows followed by Cluster(0, 1, 2)
// and AddOrdering(2, 1, 0) would make it: every probe, scan and
// statistic returns the same rows in the same order and charges the
// same I/O. BuildAllHashIndexes then indexes the hub column. Like Fill,
// FillFactors is called once, before anything else.
func (r *Relation) FillFactors(left, right []int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.filled {
		return fmt.Errorf("relstore: %s is already filled", r.Name)
	}
	if len(r.Cols) != 3 || len(left)%2 != 0 || len(right)%2 != 0 {
		return fmt.Errorf("relstore: %s: factors need 3 columns and flat pairs (have %d columns, %d and %d values)",
			r.Name, len(r.Cols), len(left), len(right))
	}
	flats := [2][]int64{left, right}
	for _, flat := range flats {
		if err := r.checkCount("pairs", len(flat)/2); err != nil {
			return err
		}
	}
	// Number the distinct hubs in ascending order.
	fz, hubIdx := &factors{}, make(map[int64]int32)
	for _, flat := range flats {
		for i := 1; i < len(flat); i += 2 {
			if _, ok := hubIdx[flat[i]]; !ok {
				hubIdx[flat[i]] = 0
				fz.hubs = append(fz.hubs, flat[i])
			}
		}
	}
	slices.Sort(fz.hubs)
	for k, h := range fz.hubs {
		hubIdx[h] = int32(k)
	}
	for i, flat := range flats {
		fz.sides[i].pairs = sortedPairs(flat, hubIdx)
		fz.sides[i].listByHub(len(fz.hubs))
	}
	for i := range fz.sides {
		fz.sides[i].place(&fz.sides[1-i])
	}
	r.fz, r.filled = fz, true
	r.primary = physCopy{cols: []int{0, 1, 2}}
	r.orderings = []*physCopy{{ordering: "2,1,0", cols: []int{2, 1, 0}}}
	return nil
}

// sortedPairs returns the distinct pairs of flat in (end, hub) order,
// each with the number of times it was given, without those whose end
// is their hub. Hubs are numbered by hubIdx, in their own order.
func sortedPairs(flat []int64, hubIdx map[int64]int32) []pair {
	ps := make([]pair, 0, len(flat)/2)
	for i := 0; i < len(flat); i += 2 {
		if flat[i] != flat[i+1] {
			ps = append(ps, pair{end: flat[i], hub: hubIdx[flat[i+1]], mult: 1})
		}
	}
	slices.SortFunc(ps, func(a, b pair) int { return cmp.Or(cmp.Compare(a.end, b.end), cmp.Compare(a.hub, b.hub)) })
	out := ps[:0]
	for _, p := range ps {
		if n := len(out); n > 0 && out[n-1].end == p.end && out[n-1].hub == p.hub {
			out[n-1].mult++
		} else {
			out = append(out, p)
		}
	}
	return slices.Clip(out)
}

// listByHub lists the side's pairs by hub: a stable counting sort of
// the (end, hub) order, so each hub's pairs keep their ends ascending.
func (s *side) listByHub(nhubs int) {
	s.hubAt = make([]int32, nhubs+1)
	for _, p := range s.pairs {
		s.hubAt[p.hub+1]++
	}
	for k := range nhubs {
		s.hubAt[k+1] += s.hubAt[k]
	}
	at := slices.Clone(s.hubAt[:nhubs])
	s.byHub, s.kids = make([]int32, len(s.pairs)), make([]kid, len(s.pairs))
	for i, p := range s.pairs {
		k := p.hub
		s.byHub[at[k]], s.kids[at[k]] = int32(i), kid{end: p.end, mult: p.mult}
		at[k]++
	}
}

// place places the rows of each pair of s in the sorted copy s's end
// leads: pair (e, h) given m times joins every pair of h on the other
// side o but e's own, each as often as both were given.
func (s *side) place(o *side) {
	total := make([]int64, len(o.hubAt)-1) // o's pairs of each hub, with multiplicity
	for k := range total {
		for _, c := range o.hubKids(int32(k)) {
			total[k] += int64(c.mult)
		}
	}
	s.off = make([]int64, len(s.pairs)+1)
	for i, p := range s.pairs {
		kids := o.hubKids(p.hub)
		n := total[p.hub]
		if j, ok := slices.BinarySearchFunc(kids, p.end, func(c kid, e int64) int { return cmp.Compare(c.end, e) }); ok {
			n -= int64(kids[j].mult)
		}
		s.off[i+1] = s.off[i] + int64(p.mult)*n
	}
}

// hubKids returns the ends of the side's pairs of hub k, ascending.
func (s *side) hubKids(k int32) []kid { return s.kids[s.hubAt[k]:s.hubAt[k+1]] }

// rows returns the relation's cardinality.
func (fz *factors) rows() int64 {
	off := fz.sides[0].off
	return off[len(off)-1]
}

// cells returns the int64 values the factors store.
func (fz *factors) cells() int {
	n := len(fz.hubs)
	for _, s := range fz.sides {
		n += 2*len(s.pairs) + len(s.off) // a pair's end, a kid's end
	}
	return n
}

// all returns a view of every row in primary order.
func (fz *factors) all() Rows {
	return Rows{arity: 3, n: int(fz.rows()), fv: factorView{fz: fz, hi: int32(len(fz.sides[0].pairs))}}
}

// factorRange is rangeScan on a factorized relation: the rows whose
// first len(vals) columns of the copy c equal vals, charged as that
// copy's range scan is.
func (r *Relation) factorRange(c *physCopy, vals []int64, io *IOStats) Rows {
	fz, si := r.fz, uint8(0)
	if c != &r.primary {
		si = 1
	}
	s := &fz.sides[si]
	lo, hi := s.pairRange(fz.hubs, vals)
	first, end := s.off[lo], s.off[hi]
	if len(vals) == 3 {
		first, end = fz.kidRange(si, lo, hi, vals[2])
	}
	if first >= end {
		// Seek still touches one page (the B-tree leaf probed).
		if n := fz.rows(); n > 0 {
			r.touch(c.ordering, int32(min(first, n-1)/PageRows), false, io)
		}
		return Rows{}
	}
	firstPage, lastPage := first/PageRows, (end-1)/PageRows
	for pg := firstPage; pg <= lastPage; pg++ {
		r.touch(c.ordering, int32(pg), pg != firstPage, io)
	}
	n := end - first
	io.RowsRead += n
	if len(vals) == 3 {
		// A whole row is one value repeated: build it.
		row := Row{vals[0], vals[1], vals[2]}
		if si == 1 {
			row[0], row[2] = row[2], row[0]
		}
		data := make([]int64, 0, 3*n)
		for i := int64(0); i < n; i++ {
			data = append(data, row...)
		}
		return Rows{data: data, arity: 3, n: int(n)}
	}
	return Rows{arity: 3, n: int(n), fv: factorView{fz: fz, lo: int32(lo), hi: int32(hi), side: si}}
}

// pairRange returns the pairs [lo, hi) that agree with vals on end or,
// given two values or more, on (end, hub).
func (s *side) pairRange(hubs, vals []int64) (lo, hi int) {
	// cmpPair orders pair i against vals.
	cmpPair := func(i int) int {
		p := &s.pairs[i]
		if c := cmp.Compare(p.end, vals[0]); c != 0 || len(vals) == 1 {
			return c
		}
		return cmp.Compare(hubs[p.hub], vals[1])
	}
	lo, hi = 0, len(s.pairs)
	for lo < hi { // first pair >= vals
		if m := int(uint(lo+hi) >> 1); cmpPair(m) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	first := lo
	for hi = len(s.pairs); lo < hi; { // first pair > vals
		if m := int(uint(lo+hi) >> 1); cmpPair(m) <= 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return first, hi
}

// kidRange returns where the rows of pair lo of side si whose third
// value is v lie in the side's sorted copy: none unless the pair is the
// one of the range [lo, hi), and never one whose ends are equal.
func (fz *factors) kidRange(si uint8, lo, hi int, v int64) (first, end int64) {
	s, o := &fz.sides[si], &fz.sides[1-si]
	first = s.off[lo]
	if lo == hi {
		return first, first
	}
	p := &s.pairs[lo]
	for _, c := range o.hubKids(p.hub) {
		switch {
		case c.end == p.end:
		case c.end < v:
			first += int64(p.mult) * int64(c.mult)
		case c.end == v:
			return first, first + int64(p.mult)*int64(c.mult)
		default:
			return first, first
		}
	}
	return first, first
}

// factorHub is a hash probe of the hub column: the rows of hub h in
// primary order, which are the blocks of h's side-0 pairs, charged one
// random read per distinct page as the hash index's row list would be.
func (r *Relation) factorHub(h int64, io *IOStats) Rows {
	fz := r.fz
	k, ok := slices.BinarySearch(fz.hubs, h)
	if !ok {
		return Rows{}
	}
	s := &fz.sides[0]
	lo, hi := s.hubAt[k], s.hubAt[k+1]
	n, lastPage := int64(0), int64(-1)
	for _, p := range s.byHub[lo:hi] {
		a, b := s.off[p], s.off[p+1]
		if a == b {
			continue
		}
		for pg := max(a/PageRows, lastPage+1); pg <= (b-1)/PageRows; pg++ {
			r.touch("", int32(pg), false, io)
		}
		lastPage = (b - 1) / PageRows
		n += b - a
	}
	if n == 0 {
		return Rows{}
	}
	io.RowsRead += n
	return Rows{arity: 3, n: int(n), fv: factorView{fz: fz, lo: lo, hi: hi, viaHub: true}}
}

// factorView is the part of a Rows that views a factorized relation:
// the rows of the pairs [lo, hi) of one side, in the side's (end, hub)
// order or, viaHub, in its (hub, end) order. Each pair's rows pair its
// end with every other-side end of its hub, ascending.
type factorView struct {
	fz     *factors
	lo, hi int32
	side   uint8
	viaHub bool
}

// factorIter is a RowIter's place in a factorView: the pair q being
// joined, the other side's ends of its hub (from c on) still to join,
// the times the current row is still to repeat, and the current row.
// kids is set once per pair, so a row stores no pointer.
type factorIter struct {
	q, c      int32
	kids      []kid
	mult, rep int64
	row       [3]int64
	end       int // the row column the pair's end fills, 0 or 2
}

// nextPair moves the iterator to the view's next pair.
func (it *factorIter) nextPair(v *factorView) {
	it.q++
	s, o := &v.fz.sides[v.side], &v.fz.sides[1-v.side]
	q := it.q
	if v.viaHub {
		q = s.byHub[q]
	}
	p := &s.pairs[q]
	it.end = 2 * int(v.side) // side 0's end is column 0, side 1's column 2
	it.row[it.end], it.row[1] = p.end, v.fz.hubs[p.hub]
	it.mult = int64(p.mult)
	it.kids, it.c = o.hubKids(p.hub), 0
}

// errFactorized refuses a change to a factorized relation's physical
// design, which FillFactors fixes.
func (r *Relation) errFactorized() error {
	return fmt.Errorf("relstore: %s is factorized; its sorted copies are fixed", r.Name)
}
