package relstore

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// Row is one tuple of a connection relation: target-object ids, one per
// attribute (the paper represents the ID datatype as integers, §5).
type Row []int64

// Rows is a read-only view of tuples in the store's own storage: the
// contiguous range a sorted copy holds for a key, the row indexes a hash
// index (or a filtered scan) matched, or, on a factorized relation, the
// (end, hub) pairs whose rows the probe returns. A probe copies no row
// (but a filtered full scan, or a whole-row lookup, of a factorized
// relation, which copies its matches); the view stays valid for the life
// of the store, so a cache may hold it, and must not be written through.
// The zero Rows is empty.
type Rows struct {
	data  []int64 // the n tuples themselves (idx == nil) or the copy idx points into
	idx   []int32 // matched row numbers in data; nil for a contiguous view
	arity int
	n     int
	fv    factorView // fv.fz != nil: a view of a factorized relation
}

// Len returns the number of rows in the view.
func (v Rows) Len() int { return v.n }

// Iter returns an iterator over the view's rows, in order.
func (v Rows) Iter() RowIter { return RowIter{v: v, fi: factorIter{q: v.fv.lo - 1}} }

// RowIter reads a Rows in order without allocating. Its zero value is
// an empty iterator.
type RowIter struct {
	v  Rows
	i  int // rows returned so far
	fi factorIter
}

// Next returns the next row, or nil after the last. A row of a
// factorized relation is held in the iterator and is overwritten by the
// next call; a row of a materialized one aliases the store.
func (it *RowIter) Next() Row {
	v, i := &it.v, it.i
	if i == v.n {
		return nil
	}
	it.i++
	if v.fv.fz == nil {
		if v.idx != nil {
			i = int(v.idx[i])
		}
		o := i * v.arity
		return v.data[o : o+v.arity : o+v.arity]
	}
	// A factorized row: the current one again, or the current pair's
	// next end that is not the pair's own, or the next pair's first.
	f := &it.fi
	if f.rep > 0 {
		f.rep--
		return f.row[:]
	}
	for {
		for int(f.c) < len(f.kids) {
			c := f.kids[f.c]
			f.c++
			if c.end != f.row[f.end] {
				f.row[2-f.end] = c.end
				f.rep = f.mult*int64(c.mult) - 1
				return f.row[:]
			}
		}
		f.nextPair(&v.fv)
	}
}

// physCopy is one physical copy of a relation's tuples, stored flat:
// row i is data[i*arity : (i+1)*arity]. The primary copy is in
// insertion order until Cluster sorts it; every secondary ordering is a
// full sorted copy of its own — what PageKey.Ordering has always charged
// the buffer pool for.
type physCopy struct {
	ordering string // PageKey.Ordering: "" for the primary copy
	cols     []int  // sort columns; nil for insertion order
	data     []int64
}

// Relation is a connection relation. Attributes are named after the TSS
// occurrences they bind. A relation is built at load time — Fill, then
// the physical design (Cluster, AddOrdering, BuildHashIndex) — and is
// read-only from then on: reads take no lock and are safe for concurrent
// use once building has finished; mu only serializes the builders among
// themselves.
type Relation struct {
	Name  string
	Cols  []string
	store *Store

	mu        sync.Mutex
	primary   physCopy
	orderings []*physCopy         // sorted by column list, so the first prefix match is deterministic
	hashIdx   []map[int64][]int32 // per column: value -> primary row numbers; nil entry = no index
	filled    bool
	// fz is the storage of a factorized relation (FillFactors), nil for
	// a materialized one. Its primary and ordering then hold no data.
	fz *factors
}

// NumRows returns the relation's cardinality.
func (r *Relation) NumRows() int {
	if r.fz != nil {
		return int(r.fz.rows())
	}
	return len(r.primary.data) / len(r.Cols)
}

// cells returns the number of int64 values the relation stores.
func (r *Relation) cells() int {
	if r.fz != nil {
		return r.fz.cells()
	}
	n := len(r.primary.data)
	for _, o := range r.orderings {
		n += len(o.data)
	}
	return n
}

// NumPages returns the page count of the primary copy.
func (r *Relation) NumPages() int {
	return (r.NumRows() + PageRows - 1) / PageRows
}

// Arity returns the number of attributes.
func (r *Relation) Arity() int { return len(r.Cols) }

// Fill gives the relation its tuples, flat and in primary order: row i
// is rows[i*arity : (i+1)*arity]. The relation keeps rows as its primary
// copy, so the caller allocates it at exactly the relation's size and
// does not write to it again. A relation is filled once, before its
// physical design; a second Fill, a length that is not a multiple of
// the arity, or more rows than an int32 can number, is an error.
func (r *Relation) Fill(rows []int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.filled {
		return fmt.Errorf("relstore: %s is already filled", r.Name)
	}
	if len(rows)%len(r.Cols) != 0 {
		return fmt.Errorf("relstore: %s: %d values do not make %d-ary rows", r.Name, len(rows), len(r.Cols))
	}
	if err := r.checkCount("rows", len(rows)/len(r.Cols)); err != nil {
		return err
	}
	r.primary.data, r.filled = rows, true
	return nil
}

// checkCount refuses n things of a relation that int32s must number:
// a materialized relation's rows (its sort permutations, hash indexes
// and views hold row numbers as int32), a factorized one's pairs and
// hubs.
func (r *Relation) checkCount(what string, n int) error {
	if n > math.MaxInt32 {
		return fmt.Errorf("relstore: %s: %d %s exceed the %d a relation can number", r.Name, n, what, math.MaxInt32)
	}
	return nil
}

// BuildHashIndex creates a single-attribute hash index on column col.
func (r *Relation) BuildHashIndex(col int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.buildHashIndexLocked(col)
}

func (r *Relation) buildHashIndexLocked(col int) error {
	if col < 0 || col >= len(r.Cols) {
		return fmt.Errorf("relstore: %s: no column %d", r.Name, col)
	}
	if r.fz != nil {
		r.fz.hashed[col] = true
		return nil
	}
	if r.hashIdx == nil {
		r.hashIdx = make([]map[int64][]int32, len(r.Cols))
	}
	// Count first, then carve every value's row list out of one
	// backing array of exactly the relation's size.
	arity, data := len(r.Cols), r.primary.data
	counts := make(map[int64]int32)
	for o := col; o < len(data); o += arity {
		counts[data[o]]++
	}
	backing := make([]int32, len(data)/arity)
	idx := make(map[int64][]int32, len(counts))
	for i, o := 0, col; o < len(data); i, o = i+1, o+arity {
		v := data[o]
		rows, ok := idx[v]
		if !ok {
			c := counts[v]
			rows, backing = backing[:0:c], backing[c:]
		}
		idx[v] = append(rows, int32(i))
	}
	r.hashIdx[col] = idx
	return nil
}

// BuildAllHashIndexes creates a hash index on every attribute (the
// "single attribute indices on every attribute" design of §5.1) that no
// sorted copy already leads with: Access and the optimizer both prefer
// such a copy, so an index on its first column would never be read.
// Call it after Cluster and AddOrdering.
func (r *Relation) BuildAllHashIndexes() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for c := range r.Cols {
		if r.sortedOn([]int{c}) != nil {
			continue
		}
		if err := r.buildHashIndexLocked(c); err != nil {
			panic(err) // unreachable: columns enumerated from r.Cols
		}
	}
}

// Cluster physically sorts the primary copy by the given column prefix
// (an index-organized table clustered "on the direction that the
// relation is used", §5.1), in place. Existing indexes and orderings are
// rebuilt.
func (r *Relation) Cluster(cols ...int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.checkCols(cols); err != nil {
		return err
	}
	if r.fz != nil {
		return r.errFactorized()
	}
	permuteRows(r.primary.data, len(r.Cols), r.sortPerm(cols))
	r.primary.cols = append([]int(nil), cols...)
	for c, idx := range r.hashIdx {
		if idx != nil {
			if err := r.buildHashIndexLocked(c); err != nil {
				return err
			}
		}
	}
	for _, o := range r.orderings {
		o.data = r.sortedBy(o.cols)
	}
	return nil
}

// AddOrdering builds a secondary sorted copy (a clustering of the
// relation in another direction). Lookups by a prefix of cols become
// binary-search range scans over that copy.
func (r *Relation) AddOrdering(cols ...int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.checkCols(cols); err != nil {
		return err
	}
	if r.fz != nil {
		return r.errFactorized()
	}
	o := &physCopy{ordering: colKey(cols), cols: append([]int(nil), cols...), data: r.sortedBy(cols)}
	at, dup := slices.BinarySearchFunc(r.orderings, cols, func(o *physCopy, cols []int) int { return slices.Compare(o.cols, cols) })
	if dup {
		r.orderings[at] = o
	} else {
		r.orderings = slices.Insert(r.orderings, at, o)
	}
	return nil
}

// sortedBy returns a copy of the primary tuples stably sorted by cols,
// so rows equal on cols keep their primary order.
func (r *Relation) sortedBy(cols []int) []int64 {
	arity, src := len(r.Cols), r.primary.data
	out := make([]int64, len(src))
	for i, p := range r.sortPerm(cols) {
		copy(out[i*arity:(i+1)*arity], src[int(p)*arity:])
	}
	return out
}

// sortPerm returns the primary's row numbers in the order of a stable
// sort by cols. It is an LSD radix sort: one stable counting pass per
// 8-bit digit of v − min over the column, least significant column and
// digit first, skipping the digits on which every row agrees.
func (r *Relation) sortPerm(cols []int) []int32 {
	arity, src := len(r.Cols), r.primary.data
	n := len(src) / arity
	perm, tmp := make([]int32, n), make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	for k := len(cols) - 1; k >= 0 && n > 1; k-- {
		c := cols[k]
		lo, hi := src[c], src[c]
		for o := c; o < len(src); o += arity {
			lo, hi = min(lo, src[o]), max(hi, src[o])
		}
		// Histograms do not depend on the row order, so one pass over
		// the column counts every digit the column's span needs.
		var counts [8][256]int
		digits := (bits.Len64(uint64(hi)-uint64(lo)) + 7) / 8
		for o := c; o < len(src); o += arity {
			key := uint64(src[o]) - uint64(lo)
			for d := 0; d < digits; d++ {
				counts[d][byte(key>>(8*d))]++
			}
		}
		for d := 0; d < digits; d++ {
			count, shift := &counts[d], 8*d
			if count[byte((uint64(src[c])-uint64(lo))>>shift)] == n {
				continue // every row has this digit
			}
			at := 0
			for b, m := range count {
				count[b], at = at, at+m
			}
			for _, p := range perm {
				b := byte((uint64(src[int(p)*arity+c]) - uint64(lo)) >> shift)
				tmp[count[b]] = p
				count[b]++
			}
			perm, tmp = tmp, perm
		}
	}
	return perm
}

// permuteRows reorders the flat rows of data in place so that row i
// holds what row perm[i] held, following each cycle of perm once; perm
// is consumed.
func permuteRows(data []int64, arity int, perm []int32) {
	saved := make([]int64, arity)
	for i := range perm {
		if int(perm[i]) == i {
			continue // in place, or its cycle is done
		}
		copy(saved, data[i*arity:(i+1)*arity])
		j := i
		for {
			k := int(perm[j])
			perm[j] = int32(j)
			if k == i {
				copy(data[j*arity:(j+1)*arity], saved)
				break
			}
			copy(data[j*arity:(j+1)*arity], data[k*arity:(k+1)*arity])
			j = k
		}
	}
}

func (r *Relation) checkCols(cols []int) error {
	if len(cols) == 0 {
		return fmt.Errorf("relstore: %s: empty column list", r.Name)
	}
	for _, c := range cols {
		if c < 0 || c >= len(r.Cols) {
			return fmt.Errorf("relstore: %s: no column %d", r.Name, c)
		}
	}
	return nil
}

// colKey names an ordering for PageKey: its column list, "1,0".
func colKey(cols []int) string {
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = strconv.Itoa(c)
	}
	return strings.Join(parts, ",")
}

// HasHashIndex reports whether column col has a hash index.
func (r *Relation) HasHashIndex(col int) bool {
	if r.fz != nil {
		return col >= 0 && col < len(r.fz.hashed) && r.fz.hashed[col]
	}
	return col >= 0 && col < len(r.hashIdx) && r.hashIdx[col] != nil
}

// ClusteredOn reports whether the relation (primary or a secondary copy)
// is sorted with cols as a prefix, returning the ordering key to probe.
func (r *Relation) ClusteredOn(cols []int) (ordering string, ok bool) {
	if c := r.sortedOn(cols); c != nil {
		return c.ordering, true
	}
	return "", false
}

// sortedOn returns the copy that serves a lookup on cols as a range
// scan: the primary if it is clustered with cols as a prefix, else the
// first such secondary ordering in column-list order; nil if none.
func (r *Relation) sortedOn(cols []int) *physCopy {
	if hasPrefix(r.primary.cols, cols) {
		return &r.primary
	}
	for _, o := range r.orderings {
		if hasPrefix(o.cols, cols) {
			return o
		}
	}
	return nil
}

func hasPrefix(have, want []int) bool {
	if len(have) < len(want) {
		return false
	}
	for i, c := range want {
		if have[i] != c {
			return false
		}
	}
	return true
}
