// Package shard implements horizontal scale-out for the XKeyword engine
// (ROADMAP item 2): the master index is partitioned by target object
// into N shards, each servable by an independent xkserve replica, and a
// coordinator scatter-gathers keyword queries across them.
//
// The design follows from one observation about the paper's result
// shape: an MTTON is a *tree* of target objects, so the TOs of one
// result can hash to every partition. Executing CNs against only a
// shard's local index slice would silently lose every cross-partition
// result. The protocol therefore has two phases:
//
//   - Lookup scatter: the coordinator fans the query's keyword lookups
//     to all shards. Partitions are disjoint and exhaustive over TOs, so
//     the union of the local containing lists is exactly the global
//     containing list (multi-token intersection is TO-local, so it
//     commutes with the union).
//   - Execute scatter: the coordinator ships the merged global postings
//     back out as a query-scoped index source. Every node derives the
//     identical plan list from it over the replicated structural data —
//     connection relations are replicated, only the memory-dominant
//     index is partitioned — and the list is partitioned by plan: shard
//     s plans and executes the plans whose index is ≡ s (mod N), each
//     to the same per-plan cap K a single node applies. Residue classes
//     are disjoint and exhaustive over the plan list and a plan's
//     results do not depend on where it runs, so the union of the
//     per-shard result sets is the exact global result set, and every
//     plan is executed exactly once in the cluster.
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
// correctly" invariant: an execute-phase failure is fully recoverable
// (the request carries everything needed, so the dead shard's plan
// classes are reassigned to survivors and the answer stays exact); a lookup-phase
// failure loses that shard's posting partition, and the answer — exact
// over the surviving partitions — is annotated with a loud degradation
// note via qserve.NoteDegradation and never cached. When fewer than a
// quorum of shards answer, the coordinator refuses with ErrNoQuorum
// instead of serving a mostly-empty answer.
package shard

import (
	"sort"

	"repro/internal/kwindex"
)

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

// MergePostings concatenates per-shard slices of one containing list and
// restores the global (TO, node) sort order the Source contract
// promises. Partitions are disjoint, so this is a set union.
func MergePostings(lists [][]kwindex.Posting) []kwindex.Posting {
	var out []kwindex.Posting
	for _, ps := range lists {
		out = append(out, ps...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TO != out[j].TO {
			return out[i].TO < out[j].TO
		}
		return out[i].Node < out[j].Node
	})
	return out
}
