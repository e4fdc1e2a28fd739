package core

import (
	"repro/internal/diskindex"
	"repro/internal/kwindex"
)

// PostingSource is the master-index read interface the query pipeline
// (through discover's one containing-list read per keyword), the
// scorers and the presentation graphs consume. It aliases
// kwindex.Source (defined next to the Posting type, where both backends
// can implement it without an import cycle) and is satisfied by
//
//   - *kwindex.Index: the in-memory index the load stage builds, and
//   - *diskindex.Reader: the paged, disk-backed index served through a
//     buffer pool, for datasets whose index does not fit in RAM and for
//     O(1)-cold-start restores.
//
// Swap backends by assigning System.Index; everything downstream is
// oblivious to which one it reads.
type PostingSource = kwindex.Source

var (
	_ PostingSource = (*kwindex.Index)(nil)
	_ PostingSource = (*diskindex.Reader)(nil)
)
