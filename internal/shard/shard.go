// Package shard implements horizontal scale-out for the XKeyword engine:
// a coordinator spreads each keyword query's plan execution across N
// shard servers, each servable by an independent xkserve replica. The
// master index is split by target object into N partitions (the split
// manifest records them); the coordinator keeps the whole index, which
// the split was cut from.
//
// The design follows from one observation about the paper's result
// shape: an MTTON is a *tree* of target objects, so the TOs of one
// result can hash to every partition. Executing CNs against only a
// shard's local index slice would silently lose every cross-partition
// result. The protocol therefore has one phase:
//
//   - The coordinator reads the query's containing lists from its own
//     master index (paper §4: the keyword discoverer reads the master
//     index before CN generation) and ships them out as a query-scoped
//     index source. Every node derives the identical plan list from it
//     over the replicated structural data — schema, TSS and connection
//     relations are replicated to every shard — and the list is
//     partitioned by plan: shard s plans and executes the plans whose
//     index is ≡ s (mod N), each to the same per-plan cap K a single
//     node applies. Residue classes are disjoint and exhaustive over the
//     plan list and a plan's results do not depend on where it runs, so
//     the union of the per-shard result sets is the exact global result
//     set, and every plan is executed exactly once in the cluster.
//
// Determinism: every result carries the canonical order key exec.Result
// .Ord (plan index, emission sequence). The plan list is a function of
// the query-scoped source alone (the pipeline's shape template plus the
// query's keywords; pipeline.Query.NetsCRC proves per response that
// shard and coordinator derived the same one), so merging the per-shard
// streams by (Score, Ord) and truncating to K reproduces single-node
// execution byte for byte: a member of the global top-K from plan p is
// preceded by fewer than K results overall, hence by fewer than K among
// its own shard's plans, and is in that shard's first K (the
// equivalence suite asserts this for N ∈ {1,2,3,7}).
//
// Failure semantics preserve the repo's "fail loudly or answer
// correctly" invariant with two outcomes and no third: a shard failure
// is fully recoverable (the request carries everything needed, so the
// dead shard's plan classes are reassigned to survivors and the answer
// stays exact); only when no shard group is left to execute a class
// does the coordinator refuse with ErrNoQuorum.
package shard

import "repro/internal/kwindex"

// HashScheme names the partition function recorded in the manifest; a
// manifest with an unknown scheme is rejected rather than misrouted.
const HashScheme = "splitmix-to-v1"

// Partition maps a target object to its partition in [0, n). TO ids are
// small and sequential, so the raw value is mixed (splitmix64 finalizer)
// before the modulus; otherwise partition i would hold exactly the TOs
// ≡ i (mod n) and any id-correlated locality would skew shard load.
func Partition(to int64, n int) int {
	if n <= 1 {
		return 0
	}
	z := uint64(to) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(n))
}

// PartitionIndex filters a built master index down to one partition's
// postings: every posting whose TO hashes to part. The split path feeds
// the result to the diskindex writer; the shard server also uses it as
// the failover fallback when its partition file goes bad (rebuilding
// from the in-memory index mirrors PR 5's degrade-once failover).
func PartitionIndex(ix *kwindex.Index, part, n int) *kwindex.Index {
	out := make(map[string][]kwindex.Posting)
	for _, term := range ix.Terms() {
		var keep []kwindex.Posting
		for _, p := range ix.Postings(term) {
			if Partition(p.TO, n) == part {
				keep = append(keep, p)
			}
		}
		if len(keep) > 0 {
			out[term] = keep
		}
	}
	return kwindex.FromPostings(out)
}
