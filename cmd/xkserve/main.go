// Command xkserve hosts the XKeyword web demo (the paper's Figure 4):
// a keyword query page and JSON APIs for the ranked result list and the
// interactive presentation graphs, served through the qserve layer
// (result cache, singleflight collapse, admission control). Serving
// stats are exposed at /debug/qserve; the per-stage query-pipeline
// breakdown (cached vs executed queries, stage timings and cache
// traffic) at /debug/pipeline; per-query EXPLAIN ANALYZE at
// /api/explain?q=...; the ok/degraded/unavailable health state machine
// at /healthz.
//
// Snapshot loads are self-healing: the startup recovery sweep
// quarantines torn temp files, and with -disk-index a sidecar that is
// missing, corrupt or mismatched at load, or fails a lookup later, is
// quarantined and the index rebuilt in memory by one kwindex.Failover;
// /healthz then reports degraded (through a -segdir store too).
//
// Usage:
//
//	xkserve [-addr :8080] [-schema tpch|dblp] [-in file.xml] [-nodes f -edges f] [-load snapshot]
//	        [-cache-entries 4096] [-cache-bytes 67108864] [-cache-ttl 5m]
//	        [-max-concurrent 0] [-queue-wait 100ms]
//	        [-disk-index] [-index-cache-bytes 1048576]
//	        [-segdir dir] [-seg-nosync]
//
// With -segdir the server layers a live segmented index (internal/segidx)
// over the loaded master index and accepts durable write batches at
// POST /api/ingest; /debug/segidx exposes the store's shape.
//
// Scatter-gather serving (internal/shard) over a split produced by
// `xkeyword -shardop split`:
//
//	xkserve -sharddir dir -shard-of 1            one shard server (protocol endpoints only)
//	xkserve -shards http://h1:p,http://h2:p [-sharddir dir] [-load snapshot]
//
// A shard server answers only the wire protocol (execute, stats) plus
// /healthz — never the ordinary query API. The coordinator loads the
// whole snapshot the split was cut from, reads each query's postings
// from its own index, and serves the full demo API in one round trip
// per query: each shard executes its residue class of the query's
// plans, a dead shard's classes are reassigned to survivors so answers
// stay exact, and only with no shard left does a query get a 503.
//
// Each shard group may list several replicas, "|"-separated — servers
// over byte-identical copies of the same shard directory:
//
//	xkserve -shards 'http://a1|http://a2,http://b1|http://b2' -sharddir dir
//
// The coordinator routes each request to the group's healthiest
// replica, fails over to siblings, and hedges requests that run past
// the replica's p95 (budget-capped; -hedge-off disables). "-shards
// auto" reads the topology from the split manifest's recorded addresses
// (xkeyword -shardop split -shardaddrs ...). /healthz reports
// per-replica breaker states; /debug/shard the replica, failover and
// hedge counters.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/diskindex"
	"repro/internal/graphsource"
	"repro/internal/kwindex"
	"repro/internal/persist"
	"repro/internal/qserve"
	"repro/internal/rank"
	"repro/internal/segidx"
	"repro/internal/shard"
	"repro/internal/webdemo"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		schemaFlag = flag.String("schema", "dblp", "built-in schema: tpch or dblp")
		in         = flag.String("in", "", "XML file to load (default: built-in synthetic data)")
		loadFrom   = flag.String("load", "", "restore a snapshot instead of loading XML")
		z          = flag.Int("z", 8, "maximum MTNN size Z")

		cacheEntries = flag.Int("cache-entries", 4096, "result cache capacity in queries (negative disables caching)")
		cacheBytes   = flag.Int64("cache-bytes", 64<<20, "result cache byte budget")
		cacheTTL     = flag.Duration("cache-ttl", 5*time.Minute, "result cache entry lifetime (negative = no expiry)")
		maxConc      = flag.Int("max-concurrent", 0, "max concurrent query executions (0 = 2×GOMAXPROCS)")
		queueWait    = flag.Duration("queue-wait", 100*time.Millisecond, "admission queue wait before shedding with 503")

		diskIdx  = flag.Bool("disk-index", false, "serve the master index from a paged .xki file through a buffer pool instead of RAM")
		idxCache = flag.Int64("index-cache-bytes", diskindex.DefaultCacheBytes, "buffer-pool budget for -disk-index")

		segDir    = flag.String("segdir", "", "directory of a live segmented index: enables POST /api/ingest, layered over the loaded master index")
		segNoSync = flag.Bool("seg-nosync", false, "skip the per-batch WAL fsync of -segdir ingests (durability only as strong as the page cache)")

		shardDir    = flag.String("sharddir", "", "directory of a partitioned index (written by xkeyword -shardop split)")
		shardOf     = flag.Int("shard-of", -1, "serve one shard of -sharddir's split: the shard id (protocol endpoints only)")
		shards      = flag.String("shards", "", "shard topology: comma-separated groups of |-separated replica URLs, or \"auto\" to read the manifest's recorded addresses; serve as scatter-gather coordinator")
		shardCache  = flag.Int("shard-cache-entries", 1024, "shard-side execute-response cache capacity (negative disables)")
		hedgeOff    = flag.Bool("hedge-off", false, "disable hedged requests to sibling replicas")
		hedgeMax    = flag.Duration("hedge-max-delay", 100*time.Millisecond, "upper clamp on the p95-derived hedge delay")
		hedgeBudget = flag.Int("hedge-budget-pct", 10, "cap fired hedges at this percent of hedgeable requests, coordinator-wide")

		nodesFile = flag.String("nodes", "", "edge-list nodes file (CSV/TSV; requires -edges, replaces -in/-schema)")
		edgesFile = flag.String("edges", "", "edge-list edges file (CSV/TSV; requires -nodes)")
		scorer    = flag.String("scorer", "", fmt.Sprintf("default result scorer: %s (per-query override via ?scorer=)", strings.Join(rank.Names(), ", ")))
		relax     = flag.Bool("relax", false, "relax queries with unmatched keywords (drop/substitute, loudly annotated) instead of returning nothing")
	)
	flag.Parse()
	if _, err := rank.New(*scorer); err != nil {
		fatal(err)
	}
	if *loadFrom != "" && *nodesFile+*edgesFile != "" {
		fatal(fmt.Errorf("-nodes/-edges replace -load"))
	}
	data := graphsource.Inputs{Schema: *schemaFlag, In: *in, Nodes: *nodesFile, Edges: *edgesFile}

	topology := *shards
	if *shardOf >= 0 && topology != "" {
		fatal(fmt.Errorf("-shard-of and -shards are mutually exclusive"))
	}
	if *shardOf >= 0 {
		if err := runShard(*addr, *shardDir, *shardOf, *loadFrom, data, *z, *idxCache, *scorer, *relax, *shardCache); err != nil {
			fatal(err)
		}
		return
	}
	if *segDir != "" && topology != "" {
		fatal(fmt.Errorf("-segdir and -shards are mutually exclusive (ingest writes locally, queries go to shards)"))
	}

	start := time.Now()
	sys, err := buildSystem(*loadFrom, data, *z, *diskIdx, *idxCache, *scorer, *relax)
	if err != nil {
		fatal(err)
	}
	rd, _ := sys.Index.(*diskindex.Reader)
	if fo, ok := sys.Index.(*kwindex.Failover); ok {
		rd, _ = fo.Primary().(*diskindex.Reader)
	}
	if rd != nil {
		fmt.Fprintf(os.Stderr, "xkserve: master index on disk (%d terms, %d postings), cache %d bytes\n",
			rd.NumKeywords(), rd.NumPostings(), *idxCache)
	}
	// With -segdir the segmented store becomes the system's master
	// index, layered over whatever buildSystem produced: batch-loaded
	// postings serve as the base, ingested segments and the memtable
	// shadow it per target object. Queries run unchanged.
	var store *segidx.Store
	if *segDir != "" {
		store, err = segidx.Open(*segDir, segidx.Options{
			Base:            sys.Index,
			IndexCacheBytes: *idxCache,
			AutoCompact:     true,
			NoSync:          *segNoSync,
			Logf:            func(format string, args ...any) { fmt.Fprintf(os.Stderr, "xkserve: "+format+"\n", args...) },
		})
		if err != nil {
			fatal(err)
		}
		sys.Index = store
		st := store.Stats()
		fmt.Fprintf(os.Stderr, "xkserve: live ingestion at %s (%d segments, %d memtable docs recovered)\n",
			*segDir, len(st.Segments), st.MemDocs)
	}
	// The serving layer fronts either the local system or — in
	// coordinator mode — the scatter-gather engine; cache, singleflight,
	// admission control and health are identical either way.
	var eng qserve.Engine = sys
	if topology != "" {
		coord, err := buildCoordinator(sys, topology, *shardDir, shard.CoordinatorOptions{
			HedgeDisabled:  *hedgeOff,
			HedgeMaxDelay:  *hedgeMax,
			HedgeBudgetPct: *hedgeBudget,
		})
		if err != nil {
			fatal(err)
		}
		eng = coord
	}
	qs := qserve.New(eng, qserve.Options{
		MaxEntries:    *cacheEntries,
		MaxBytes:      *cacheBytes,
		TTL:           *cacheTTL,
		MaxConcurrent: *maxConc,
		QueueWait:     *queueWait,
	})
	fmt.Fprintf(os.Stderr, "xkserve: %d target objects ready in %v; listening on %s\n",
		sys.Obj.NumObjects(), time.Since(start).Round(time.Millisecond), *addr)

	wd := webdemo.NewServerWith(sys, qs)
	if store != nil {
		wd.EnableIngest(store)
	}
	if err := listen(*addr, wd.Handler()); err != nil {
		fatal(err)
	}
	if store != nil {
		// Memtable state needs no flush: it is in the WAL and the next
		// open replays it. Close releases the handles cleanly.
		if err := store.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "xkserve: closing segmented index:", err)
		}
	}
	st := qs.Stats()
	fmt.Fprintf(os.Stderr, "xkserve: served %d queries (%d hits, %d misses, %d collapsed, %d shed)\n",
		st.Served, st.Hits, st.Misses, st.Collapses, st.Sheds)
}

// listen serves h on addr until SIGINT or SIGTERM, then stops accepting
// and gives in-flight requests up to 10 s to finish. The serving
// goroutine has returned when listen does.
func listen(addr string, h http.Handler) error {
	hs := &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	served := make(chan error, 1)
	go func() { served <- hs.ListenAndServe() }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "xkserve: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		_ = hs.Close()
	}
	<-served // http.ErrServerClosed, returned as soon as Shutdown began
	return nil
}

// runShard serves one partition of a split: the wire-protocol endpoints
// with the structural data restored from the snapshot the split copied
// beside it (or built from the data flags). The shard's own .xki slice
// supplies only its identity and the header totals /shard/stats reports
// — execute requests carry their postings, so no lookup reaches it.
func runShard(addr, shardDir string, id int, loadFrom string, data graphsource.Inputs, z int, idxCache int64, scorer string, relax bool, cacheEntries int) error {
	if shardDir == "" {
		return fmt.Errorf("-shard-of requires -sharddir")
	}
	man, err := shard.LoadManifest(shardDir)
	if err != nil {
		return err
	}
	if id >= man.N {
		return fmt.Errorf("shard id %d out of range: the split has %d shards", id, man.N)
	}
	si := man.Shards[id]
	snap := filepath.Join(shardDir, si.Dir, shard.SnapshotFileName)
	if loadFrom == "" {
		if _, err := os.Stat(snap); err == nil {
			loadFrom = snap
		}
	}
	// Scorer/relax settings are replicated to the shard side so plan
	// derivation (and relaxation) match the coordinator's; the
	// coordinator's network CRC cross-check catches a mismatch.
	sys, err := buildSystem(loadFrom, data, z, false, idxCache, scorer, relax)
	if err != nil {
		return err
	}
	idxPath := filepath.Join(shardDir, si.Dir, si.Index)
	rd, err := diskindex.Open(idxPath, diskindex.Options{CacheBytes: idxCache})
	if err != nil {
		return err
	}
	sys.Index = rd
	srv := &shard.Server{Sys: sys, Local: rd, ID: id, N: man.N, CRC: si.CRC}
	if cacheEntries >= 0 {
		n := cacheEntries
		if n == 0 {
			n = 1024
		}
		srv.Cache = qserve.NewResultCache(0, n, 32<<20, 5*time.Minute)
	}
	fmt.Fprintf(os.Stderr, "xkserve: shard %d of %d (%d postings, %d keywords) listening on %s\n",
		id, man.N, rd.NumPostings(), rd.NumKeywords(), addr)
	return listen(addr, srv.Handler())
}

// buildCoordinator wires the scatter-gather engine to the shard replica
// topology: "a|b,c|d" style groups, or "auto" to read the addresses the
// split recorded in its manifest. With -sharddir the manifest is loaded
// so validation can check each replica serves the recorded partition
// (CRC) — and that every replica of a group serves byte-identical data,
// the invariant that makes failover and hedging answer-preserving.
// Validation failure is loud but not fatal: a replica that is down at
// boot does not keep the coordinator from starting — queries reassign
// its plan classes to the shards that are up.
func buildCoordinator(sys *core.System, topology, shardDir string, opts shard.CoordinatorOptions) (*shard.Coordinator, error) {
	opts.Logf = func(format string, args ...any) { fmt.Fprintf(os.Stderr, "xkserve: "+format+"\n", args...) }
	var man *shard.Manifest
	if shardDir != "" {
		var err error
		if man, err = shard.LoadManifest(shardDir); err != nil {
			return nil, err
		}
		opts.Manifest = man
	}
	var groups [][]string
	if topology == "auto" {
		if man == nil {
			return nil, fmt.Errorf("-shards auto requires -sharddir (the topology lives in the split manifest)")
		}
		var err error
		if groups, err = man.Topology(); err != nil {
			return nil, err
		}
	} else {
		var err error
		if groups, err = shard.ParseTopology(topology); err != nil {
			return nil, err
		}
	}
	if man != nil && man.N != len(groups) {
		return nil, fmt.Errorf("manifest records %d shards, -shards lists %d groups", man.N, len(groups))
	}
	coord := shard.NewCoordinatorGroups(sys, groups, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := coord.Validate(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "xkserve: WARNING: shard validation failed (%v); serving anyway — live shards execute every plan class\n", err)
	} else {
		fmt.Fprintf(os.Stderr, "xkserve: coordinator over %d shards (%d replicas) validated\n", coord.N(), coord.Replicas())
	}
	return coord, nil
}

// buildSystem restores the snapshot loadFrom, or else loads the data
// graph the flags name and, with diskIdx, serves its master index from
// a temporary .xki file.
func buildSystem(loadFrom string, data graphsource.Inputs, z int, diskIdx bool, idxCache int64, scorer string, relax bool) (*core.System, error) {
	if loadFrom != "" {
		sys, err := persist.LoadFileOpts(loadFrom, persist.LoadOptions{
			DiskIndex:       diskIdx,
			IndexCacheBytes: idxCache,
			SelfHeal:        true,
			OnDegrade: func(cause error) {
				fmt.Fprintf(os.Stderr, "xkserve: DEGRADED: disk index abandoned, serving from in-memory rebuild: %v\n", cause)
			},
		})
		if err != nil {
			return nil, err
		}
		// Serving-time choices, not snapshot state.
		sys.Opts.Scorer = scorer
		sys.Opts.Relax = relax
		return sys, nil
	}
	src, err := graphsource.Resolve(data)
	if err != nil {
		return nil, err
	}
	sys, err := graphsource.Load(src, core.Options{Z: z, Scorer: scorer, Relax: relax})
	if err != nil || !diskIdx {
		return sys, err
	}
	rd, err := diskindex.CreateTemp(sys.Index.(*kwindex.Index), diskindex.Options{CacheBytes: idxCache})
	if err != nil {
		return nil, err
	}
	sys.Index = rd
	return sys, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xkserve:", err)
	os.Exit(1)
}
