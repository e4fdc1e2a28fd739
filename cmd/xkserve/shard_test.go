package main

import (
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/kwindex"
	"repro/internal/shard"
)

// TestShardRoleLoadsEdgeList splits an edge-list system's index the way
// `xkeyword -nodes … -edges … -shardop split` does without -save, so no
// snapshot lies beside the slices, and serves it with two shard
// processes and a coordinator, all given the same -nodes/-edges. Every
// role must load the edge list: the coordinator then answers like a
// single node over it. All three exit 0 on SIGTERM.
func TestShardRoleLoadsEdgeList(t *testing.T) {
	nodes, edges, ref := writeCitation(t)
	dir := filepath.Join(t.TempDir(), "split")
	if _, err := shard.Split(ref.Index.(*kwindex.Index), dir, 2, shard.SplitOptions{}); err != nil {
		t.Fatal(err)
	}
	data := []string{"-nodes", nodes, "-edges", edges, "-sharddir", dir}
	var shards []*server
	for i := range 2 {
		shards = append(shards, start(t, append(data, "-shard-of", strconv.Itoa(i))...))
	}
	coord := start(t, append(data, "-shards", shards[0].base+","+shards[1].base)...)
	answersLikeDemo(t, coord.base, ref, []string{"alice", "icde"}, []string{"alice"})
	coord.stop(t)
	for _, s := range shards {
		s.stop(t)
	}
}
