# Development targets. `make check` is what CI (and every PR) runs:
# the tier-1 gate plus vet, the xkvet invariant linter (`make lint`),
# and the race-focused concurrency suites.

GO ?= go

# Bench targets pipe through cmd/xkbenchjson; pipefail keeps a failing
# `go test` from being masked by a successful pipe tail.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

.PHONY: check tier1 vet lint race chaos fuzzseed bench-build bench-gate bench-qserve bench-diskindex bench-pipeline bench-segidx bench-shard bench-graphsrc bench-lint bench-decomp

check: vet lint tier1 bench-build bench-gate fuzzseed race chaos

# Tier-1 gate (see ROADMAP.md).
tier1:
	$(GO) build ./... && $(GO) test ./...

vet:
	$(GO) vet ./...

# The serving benchmark (bench/, BENCHMARK.json) is a module of its own
# that imports internal/ packages, so the tier-1 gate does not compile
# it: vet it and run its short tests here, so that a change to an API
# the harness uses fails this check instead of the benchmark run.
bench-build:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

# The regression gate on the numbers a rerun reproduces: allocs/op of
# the query path and of one relation probe per access path at -cpu 1
# and 2 (execution is serial, so the count repeats exactly at either),
# and of one snapshot load and of the relation build inside it (-cpu 1,
# a few loads, not 200), against the committed BENCH_pipeline.json, of
# the serving layer cold and warm (BenchmarkQServe, -cpu 1) and the
# /api/query handler path (BenchmarkRender) against BENCH_qserve.json,
# and of the coordinator round trip
# (BenchmarkShardCoordinator, -cpu 1) against BENCH_shard.json, of
# the cold Figure 12 search and the shape enumeration under it (-cpu 1)
# against BENCH_decomp.json, and of the master-index lookup from memory
# and from the paged disk index, cold and warm (-cpu 1), against
# BENCH_diskindex.json: all three of its rows repeat their allocs
# exactly from run to run. ns/op is printed as a delta only — wall
# time on a shared machine is not gateable.
bench-gate:
	$(GO) test -run xxx -bench 'BenchmarkQuery$$|BenchmarkLookupPaths' -cpu 1,2 -benchtime 200x -benchmem . | $(GO) run ./cmd/xkbenchjson -compare BENCH_pipeline.json -max-allocs-regress 5%
	$(GO) test -run xxx -bench 'BenchmarkSnapshotLoad|BenchmarkMaterialize$$' -cpu 1 -benchtime 5x -benchmem . | $(GO) run ./cmd/xkbenchjson -compare BENCH_pipeline.json -max-allocs-regress 5%
	$(GO) test -run xxx -bench 'BenchmarkQServe' -cpu 1 -benchtime 50x -benchmem . | $(GO) run ./cmd/xkbenchjson -compare BENCH_qserve.json -max-allocs-regress 5%
	$(GO) test -run xxx -bench 'BenchmarkRender' -cpu 1 -benchtime 1000x -benchmem . | $(GO) run ./cmd/xkbenchjson -compare BENCH_qserve.json -max-allocs-regress 5%
	$(GO) test -run xxx -bench 'BenchmarkShardCoordinator' -cpu 1 -benchtime 200x -benchmem ./internal/shard/ | $(GO) run ./cmd/xkbenchjson -compare BENCH_shard.json -max-allocs-regress 5%
	$(GO) test -run xxx -bench 'BenchmarkXKeywordCold|BenchmarkEnumerateShapes' -cpu 1 -benchtime 5x -benchmem ./internal/decomp/ | $(GO) run ./cmd/xkbenchjson -compare BENCH_decomp.json -max-allocs-regress 5%
	$(GO) test -run xxx -bench 'BenchmarkDiskIndexLookup' -cpu 1 -benchtime 2000x -benchmem . | $(GO) run ./cmd/xkbenchjson -compare BENCH_diskindex.json -max-allocs-regress 5%

# xkvet: the repo's own static-analysis suite (internal/lint). Enforces
# every registered invariant analyzer — errdrop, keyjoin, lockguard,
# maporder, retryloop (the list `xkvet -list` prints is authoritative) —
# and exits nonzero on any finding not suppressed by an //xk:ignore
# <analyzer> <reason> comment. Always leaves a machine-readable
# xkvet.sarif next to the human-readable output for CI to archive.
lint:
	$(GO) run ./cmd/xkvet -dir . -sarif xkvet.sarif

# Every package's tests under the race detector. The concurrency-heavy
# ones — the one cache every hot path shares (internal/lru), the serving
# layer, the executor and query pipeline, the segmented live index, the
# shard plane and the parallel relation build — are why the target
# exists, but a hand-kept list of them went stale as packages grew
# goroutines, so the target covers the whole module. internal/lint is
# the slowest package here (TestXkvetWallClock type-checks the whole
# module under the detector, within its budget).
race:
	$(GO) test -race ./...

# Chaos suite: 200+ deterministic seeded fault scenarios (injected read
# errors, bit flips, short reads, engine latency/errors/hangs) over the
# disk index and the serving path, plus the torn-write table, all under
# the race detector. Asserts the robustness invariant: fail loudly or
# answer correctly — never return silently wrong results.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos|TestTornFileTable' ./internal/fault/ ./internal/diskindex/ ./internal/segidx/ ./internal/edgelist/
	$(GO) test -race -count=1 -run 'TestQuorum|TestSlowShard|TestBreaker|TestRetryMasks|TestKillShard|TestExecuteFailure|TestCancellation|TestReplica|TestGroupLoss|TestHedge' ./internal/shard/

# Run every fuzz target against its seed corpus only (no new inputs);
# catches regressions on the known tricky files deterministically.
fuzzseed:
	$(GO) test -run=Fuzz ./internal/diskindex/ ./internal/dtd/ ./internal/xmlgraph/ ./internal/segidx/ ./internal/edgelist/ ./internal/webdemo/ ./internal/persist/ ./internal/jsonstr/ ./internal/core/ ./internal/shard/

# Every bench target tees its text output through cmd/xkbenchjson,
# leaving a machine-readable BENCH_<name>.json trajectory file at the
# repo root next to the human-readable log.

# Cold vs warm serving-layer latency on the DBLP workload, and the
# /api/query handler path (render + encode) on result-cache hits and
# misses, both at -cpu 1: what bench-gate compares against.
bench-qserve:
	{ $(GO) test -run xxx -bench BenchmarkQServe -cpu 1 -benchtime 50x -benchmem . && \
	  $(GO) test -run xxx -bench BenchmarkRender -cpu 1 -benchtime 1000x -benchmem . ; } | $(GO) run ./cmd/xkbenchjson -out BENCH_qserve.json

# In-memory vs paged-disk master-index lookups (cold and warm pool), at
# -cpu 1: what bench-gate compares against.
bench-diskindex:
	$(GO) test -run xxx -bench BenchmarkDiskIndexLookup -cpu 1 -benchtime 2000x -benchmem . | $(GO) run ./cmd/xkbenchjson -out BENCH_diskindex.json

# The query path (tracing off vs EXPLAIN ANALYZE) and one relation probe
# per access path, at -cpu 1 and 2, then a snapshot load and the
# relation build inside it at -cpu 1: what bench-gate compares against.
bench-pipeline:
	{ $(GO) test -run xxx -bench 'BenchmarkQuery$$|BenchmarkPipelineOverhead|BenchmarkLookupPaths' -cpu 1,2 -benchtime 200x -benchmem . && \
	  $(GO) test -run xxx -bench 'BenchmarkSnapshotLoad|BenchmarkMaterialize$$' -cpu 1 -benchtime 5x -benchmem . ; } | $(GO) run ./cmd/xkbenchjson -out BENCH_pipeline.json

# The live-index write and read path: synced vs unsynced ingest, cold
# vs warm multi-segment lookups, flush and compaction cost.
bench-segidx:
	$(GO) test -run xxx -bench BenchmarkSegidx -benchtime 50x -benchmem ./internal/segidx/ | $(GO) run ./cmd/xkbenchjson -out BENCH_segidx.json

# Scatter-gather serving: coordinator round trip vs the single-node
# baseline per shard count and per replica count, steady-state latency
# with a dead shard, the hedged-tail p99 with one stalling replica
# (hedge off vs on), merge throughput, and the offline split; then the
# coordinator round trip at -cpu 1, the rows bench-gate compares against.
bench-shard:
	{ $(GO) test -run xxx -bench BenchmarkShard -benchtime 50x -benchmem ./internal/shard/ && \
	  $(GO) test -run xxx -bench BenchmarkShardCoordinator -cpu 1 -benchtime 200x -benchmem ./internal/shard/ ; } | $(GO) run ./cmd/xkbenchjson -out BENCH_shard.json

# The generic graph-source path on the citation workload: edge-list
# parse throughput, full load (decompose + proximity + index) and
# per-scorer query latency.
bench-graphsrc:
	$(GO) test -run xxx -bench BenchmarkGraphsrc -benchtime 20x -benchmem ./internal/edgelist/ | $(GO) run ./cmd/xkbenchjson -out BENCH_graphsrc.json

# The lint gate itself: full-module type-check alone vs with all
# analyzers, so analyzer cost on top of the shared type-check is visible
# in the trajectory. TestXkvetWallClock (tier 1) brakes the same path at
# a 60s budget.
bench-lint:
	$(GO) test -run xxx -bench BenchmarkXkvet -benchtime 3x -benchmem ./internal/lint/ | $(GO) run ./cmd/xkbenchjson -out BENCH_lint.json

# The Figure 12 decomposition search on DBLP (M=6, B=2) with the
# per-graph memo bypassed, and the shape enumeration it starts with, at
# -cpu 1: what bench-gate compares against.
bench-decomp:
	$(GO) test -run xxx -bench 'BenchmarkXKeywordCold|BenchmarkEnumerateShapes' -cpu 1 -benchtime 5x -benchmem ./internal/decomp/ | $(GO) run ./cmd/xkbenchjson -out BENCH_decomp.json
