package relstore

// Export returns a copy of the relation's contents and physical design,
// for serialization. Rows come out in physical (clustered) order, so a
// rebuild that re-applies the design reproduces the same layout.
func (r *Relation) Export() (rows []Row, clustered []int, orderings [][]int, hashCols []int) {
	arity, data := len(r.Cols), r.primary.data
	rows = make([]Row, 0, r.NumRows())
	for o := 0; o < len(data); o += arity {
		rows = append(rows, append(Row(nil), data[o:o+arity]...))
	}
	clustered = append([]int(nil), r.primary.cols...)
	for _, o := range r.orderings {
		orderings = append(orderings, append([]int(nil), o.cols...))
	}
	for c := range r.Cols {
		if r.HasHashIndex(c) {
			hashCols = append(hashCols, c)
		}
	}
	return rows, clustered, orderings, hashCols
}

// Import rebuilds a relation from exported state: rows are inserted in
// order and the physical design re-applied. The relation must be empty.
func (r *Relation) Import(rows []Row, clustered []int, orderings [][]int, hashCols []int) error {
	r.mu.Lock()
	r.primary.data = make([]int64, 0, len(rows)*len(r.Cols)) // one allocation, not a doubling series
	r.mu.Unlock()
	for _, row := range rows {
		if err := r.Insert(row); err != nil {
			return err
		}
	}
	r.Seal()
	if len(clustered) > 0 {
		if err := r.Cluster(clustered...); err != nil {
			return err
		}
	}
	for _, cols := range orderings {
		if err := r.AddOrdering(cols...); err != nil {
			return err
		}
	}
	for _, c := range hashCols {
		if err := r.BuildHashIndex(c); err != nil {
			return err
		}
	}
	return nil
}

// Blobs returns a copy of every stored target-object BLOB.
func (s *Store) Blobs() map[int64][]byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[int64][]byte, len(s.blobs))
	for id, b := range s.blobs {
		out[id] = append([]byte(nil), b...)
	}
	return out
}
