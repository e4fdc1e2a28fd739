package relstore

import "fmt"

// AccessPath names how a lookup was satisfied, for plan explanation.
type AccessPath uint8

const (
	// PathClustered is a binary-search range scan on a sorted copy.
	PathClustered AccessPath = iota
	// PathHash is a single-attribute hash index probe.
	PathHash
	// PathScan is a full relation scan with a filter.
	PathScan
)

// String names the access path.
func (p AccessPath) String() string {
	switch p {
	case PathClustered:
		return "clustered"
	case PathHash:
		return "hash"
	default:
		return "scan"
	}
}

// Scan calls fn for every row, charging a sequential read of every page.
// The rows are views into the store (see Rows): fn must not modify them.
// Return false to stop early (pages already touched remain charged).
func (r *Relation) Scan(fn func(Row) bool) {
	io := IOStats{Scans: 1}
	arity, data := len(r.Cols), r.primary.data
	for i, o := 0, 0; o < len(data); i, o = i+1, o+arity {
		if i%PageRows == 0 {
			r.touch("", int32(i/PageRows), true, &io)
		}
		io.RowsRead++
		if !fn(data[o : o+arity : o+arity]) {
			break
		}
	}
	r.flush(io)
}

// flush adds one operation's counters to the store's.
func (r *Relation) flush(io IOStats) {
	if r.store != nil {
		r.store.Stats.Add(io)
	}
}

// LookupEq returns a view of all rows with row[col] == val, choosing the
// cheapest available access path (clustered copy, hash index, full scan).
func (r *Relation) LookupEq(col int, val int64) Rows {
	rows, _ := r.LookupPrefix([]int{col}, []int64{val})
	return rows
}

// LookupPrefix returns a view of all rows matching vals on the column
// prefix cols, reporting the access path used. It resolves the access
// path and flushes the I/O counters per call; a caller that probes in a
// loop compiles an Access once and accumulates into its own IOStats.
func (r *Relation) LookupPrefix(cols []int, vals []int64) (Rows, AccessPath) {
	a := r.access(cols)
	var io IOStats
	rows := a.Lookup(vals, &io)
	r.flush(io)
	return rows, a.path
}

// Access is a compiled access path: how one relation serves equality
// lookups on one column list, resolved against the physical design once
// so that a probe is a binary search (or one map read) and nothing else.
type Access struct {
	rel  *Relation
	cols []int
	path AccessPath
	copy *physCopy         // PathClustered: the sorted copy probed
	hash map[int64][]int32 // PathHash
}

// Access compiles the cheapest access path for lookups on cols: a copy
// sorted with cols as a prefix, else (single column) a hash index, else
// a filtered full scan.
func (r *Relation) Access(cols ...int) Access {
	return r.access(append([]int(nil), cols...))
}

func (r *Relation) access(cols []int) Access {
	if len(cols) == 0 {
		panic(fmt.Sprintf("relstore: %s: lookup on no columns", r.Name))
	}
	a := Access{rel: r, cols: cols, path: PathScan}
	if c := r.sortedOn(cols); c != nil {
		a.path, a.copy = PathClustered, c
	} else if len(cols) == 1 && r.HasHashIndex(cols[0]) {
		a.path, a.hash = PathHash, r.hashIdx[cols[0]]
	}
	return a
}

// Path names the access path.
func (a Access) Path() AccessPath { return a.path }

// Lookup returns a view of the rows whose lookup columns equal vals,
// adding what the probe costs to io: one lookup, the pages it touches
// against the store's buffer pool, the rows it returns. The caller
// flushes io into the store's counters (IOStats.Add) when it is done.
func (a Access) Lookup(vals []int64, io *IOStats) Rows {
	r := a.rel
	if len(vals) != len(a.cols) {
		panic(fmt.Sprintf("relstore: %s: lookup cols/vals mismatch", r.Name))
	}
	io.Lookups++
	arity := len(r.Cols)
	switch a.path {
	case PathClustered:
		return r.rangeScan(a.copy, a.cols, vals, io)
	case PathHash:
		// Random page access per match.
		idx := a.hash[vals[0]]
		if len(idx) == 0 {
			return Rows{}
		}
		lastPage := int32(-1)
		for _, ri := range idx {
			if pg := ri / PageRows; pg != lastPage {
				r.touch("", pg, false, io)
				lastPage = pg
			}
		}
		io.RowsRead += int64(len(idx))
		return Rows{data: r.primary.data, idx: idx, arity: arity, n: len(idx)}
	}
	// Fallback: full scan with filter.
	io.Scans++
	data := r.primary.data
	var idx []int32
	for i, o := 0, 0; o < len(data); i, o = i+1, o+arity {
		if i%PageRows == 0 {
			r.touch("", int32(i/PageRows), true, io)
		}
		if matches(data[o:o+arity], a.cols, vals) {
			idx = append(idx, int32(i))
		}
	}
	if len(idx) == 0 {
		return Rows{}
	}
	io.RowsRead += int64(len(idx))
	return Rows{data: data, idx: idx, arity: arity, n: len(idx)}
}

func matches(row []int64, cols []int, vals []int64) bool {
	for j, c := range cols {
		if row[c] != vals[j] {
			return false
		}
	}
	return true
}

// rangeScan binary-searches a sorted copy for the range matching vals on
// cols (a prefix of its sort columns) and returns it in place, charging
// one page seek plus the sequential pages of the range.
func (r *Relation) rangeScan(c *physCopy, cols []int, vals []int64, io *IOStats) Rows {
	arity, data := len(r.Cols), c.data
	n := len(data) / arity
	// cmp orders row i against vals on cols.
	cmp := func(i int) int {
		row := data[i*arity:]
		for j, col := range cols {
			if v := row[col]; v != vals[j] {
				if v < vals[j] {
					return -1
				}
				return 1
			}
		}
		return 0
	}
	lo, hi := 0, n
	for lo < hi { // first row >= vals
		if m := int(uint(lo+hi) >> 1); cmp(m) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	first := lo
	for hi = n; lo < hi; { // first row > vals
		if m := int(uint(lo+hi) >> 1); cmp(m) <= 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if first >= hi {
		// Seek still touches one page (the B-tree leaf probed).
		if n > 0 {
			r.touch(c.ordering, int32(min(first, n-1))/PageRows, false, io)
		}
		return Rows{}
	}
	// A clustered range scan seeks once (random) and then reads the
	// range sequentially.
	firstPage, lastPage := int32(first)/PageRows, int32(hi-1)/PageRows
	for pg := firstPage; pg <= lastPage; pg++ {
		r.touch(c.ordering, pg, pg != firstPage, io)
	}
	io.RowsRead += int64(hi - first)
	return Rows{data: data[first*arity : hi*arity], arity: arity, n: hi - first}
}

// touch records one page access against the store's buffer pool;
// sequential misses are discounted by the disk cost model.
func (r *Relation) touch(ordering string, page int32, sequential bool, io *IOStats) {
	if r.store == nil {
		return
	}
	if r.store.Pool.Access(PageKey{Relation: r.Name, Ordering: ordering, Page: page}) {
		io.PageHits++
		return
	}
	io.PageReads++
	if sequential {
		io.SeqReads++
	}
}
