package relstore

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// Row is one tuple of a connection relation: target-object ids, one per
// attribute (the paper represents the ID datatype as integers, §5).
type Row []int64

// Rows is a read-only view of tuples in the store's own storage: the
// contiguous range a sorted copy holds for a key, or the row indexes a
// hash index (or a filtered scan) matched. Nothing is copied; the rows
// must not be written through and stay valid for the life of the store.
// The zero Rows is empty.
type Rows struct {
	data  []int64 // the n tuples themselves (idx == nil) or the copy idx points into
	idx   []int32 // matched row numbers in data; nil for a contiguous view
	arity int
	n     int
}

// Len returns the number of rows in the view.
func (v Rows) Len() int { return v.n }

// At returns the i-th row, aliasing the store's storage.
func (v Rows) At(i int) Row {
	if v.idx != nil {
		i = int(v.idx[i])
	}
	o := i * v.arity
	return v.data[o : o+v.arity : o+v.arity]
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
// occurrences they bind. A relation is built at load time — Insert,
// Seal, then the physical design (Cluster, AddOrdering, BuildHashIndex)
// — and is read-only from then on: reads take no lock and are safe for
// concurrent use once building has finished; mu only serializes the
// builders among themselves.
type Relation struct {
	Name  string
	Cols  []string
	store *Store

	mu        sync.Mutex
	primary   physCopy
	orderings []*physCopy         // sorted by column list, so the first prefix match is deterministic
	hashIdx   []map[int64][]int32 // per column: value -> primary row numbers; nil entry = no index
	sealed    bool
}

// NumRows returns the relation's cardinality.
func (r *Relation) NumRows() int { return len(r.primary.data) / len(r.Cols) }

// NumPages returns the page count of the primary copy.
func (r *Relation) NumPages() int {
	return (r.NumRows() + PageRows - 1) / PageRows
}

// Arity returns the number of attributes.
func (r *Relation) Arity() int { return len(r.Cols) }

// ColIndex returns the index of the named attribute, or -1.
func (r *Relation) ColIndex(name string) int {
	for i, c := range r.Cols {
		if c == name {
			return i
		}
	}
	return -1
}

// Insert appends a tuple. It is an error after Seal or with wrong arity.
func (r *Relation) Insert(row Row) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sealed {
		return fmt.Errorf("relstore: %s is sealed", r.Name)
	}
	if len(row) != len(r.Cols) {
		return fmt.Errorf("relstore: %s: arity %d row into %d-ary relation", r.Name, len(row), len(r.Cols))
	}
	r.primary.data = append(r.primary.data, row...)
	return nil
}

// Seal ends the insert phase: the relation accepts no more tuples and
// its storage is trimmed to size. The physical design is built after.
func (r *Relation) Seal() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sealed = true
	if d := r.primary.data; cap(d) > len(d) {
		r.primary.data = append(make([]int64, 0, len(d)), d...)
	}
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
	if r.hashIdx == nil {
		r.hashIdx = make([]map[int64][]int32, len(r.Cols))
	}
	idx := make(map[int64][]int32)
	arity := len(r.Cols)
	for i, o := 0, col; o < len(r.primary.data); i, o = i+1, o+arity {
		v := r.primary.data[o]
		idx[v] = append(idx[v], int32(i))
	}
	r.hashIdx[col] = idx
	return nil
}

// BuildAllHashIndexes creates a hash index on every attribute (the
// "single attribute indices on every attribute" design of §5.1).
func (r *Relation) BuildAllHashIndexes() {
	for c := range r.Cols {
		if err := r.BuildHashIndex(c); err != nil {
			panic(err) // unreachable: columns enumerated from r.Cols
		}
	}
}

// Cluster physically sorts the primary copy by the given column prefix
// (an index-organized table clustered "on the direction that the
// relation is used", §5.1). Existing indexes and orderings are rebuilt.
func (r *Relation) Cluster(cols ...int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.checkCols(cols); err != nil {
		return err
	}
	r.primary.data = r.sortedBy(cols)
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
	perm := make([]int32, len(src)/arity)
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortStableFunc(perm, func(a, b int32) int {
		ra, rb := src[int(a)*arity:], src[int(b)*arity:]
		for _, c := range cols {
			if ra[c] != rb[c] {
				if ra[c] < rb[c] {
					return -1
				}
				return 1
			}
		}
		return 0
	})
	out := make([]int64, 0, len(src))
	for _, p := range perm {
		out = append(out, src[int(p)*arity:(int(p)+1)*arity]...)
	}
	return out
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
