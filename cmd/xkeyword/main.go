// Command xkeyword answers keyword proximity queries over an XML
// database, reproducing the XKeyword system (ICDE 2003). It loads an XML
// document (e.g. one produced by xkgen) or a built-in synthetic dataset,
// builds the master index and connection relations, and prints the
// ranked result trees of each query.
//
// Usage:
//
//	xkeyword -schema tpch|dblp [-in file.xml] [-k N] [-z N] [-all]
//	         [-scorer edgecount|weighted|diversified] [-relax]
//	         [-explain-analyze] [-disk-index] [-index-cache-bytes N]
//	         keyword keyword...
//
// With no keywords it reads queries from stdin, one per line.
//
// Generic edge-list sources (internal/edgelist; e.g. the citation
// network from xkgen -schema citation) load through the same engine:
//
//	xkeyword -nodes x.nodes.csv -edges x.edges.csv keyword keyword...
//
// Offline maintenance of a live segmented index (internal/segidx, the
// store behind xkserve -segdir):
//
//	xkeyword -segdir dir -segop build [data flags...]   bulk-load the dataset into committed segments
//	xkeyword -segdir dir -segop compact                 merge the segment set down to one
//	xkeyword -segdir dir -segop stats                   print the store's shape as JSON
//
// Partitioned-index maintenance (internal/shard, the split behind
// xkserve -shard-of / -coordinator):
//
//	xkeyword -sharddir dir -shardop split -shards N [data flags...]   split the master index into N shard directories
//	xkeyword -sharddir dir -shardop verify                            re-check every shard file against the manifest
//	xkeyword -sharddir dir -shardop stats                             print the split's manifest as JSON
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/diskindex"
	"repro/internal/exec"
	"repro/internal/graphsource"
	"repro/internal/kwindex"
	"repro/internal/persist"
	"repro/internal/pipeline"
	"repro/internal/rank"
	"repro/internal/segidx"
	"repro/internal/shard"
)

func main() {
	var (
		schemaFlag = flag.String("schema", "dblp", "built-in schema of the data: tpch or dblp")
		dtdFile    = flag.String("dtd", "", "DTD file declaring the schema (overrides -schema; requires -spec)")
		xsdFile    = flag.String("xsd", "", "XML Schema file declaring the schema (overrides -schema; requires -spec)")
		specFile   = flag.String("spec", "", "administrator spec file: segments, annotations, IDREF targets, roots")
		in         = flag.String("in", "", "XML file to load (default: built-in synthetic data)")
		k          = flag.Int("k", 10, "number of results (top-k)")
		z          = flag.Int("z", 8, "maximum MTNN size Z")
		all        = flag.Bool("all", false, "produce all results instead of top-k")
		explain    = flag.Bool("explain", false, "print the execution plans instead of running the query")
		analyze    = flag.Bool("explain-analyze", false, "run the query and print the per-stage timing tree")
		preset     = flag.String("decomposition", "xkeyword", "decomposition preset: xkeyword, complete, minclust, minnclustindx, minnclustnindx")
		saveTo     = flag.String("save", "", "after loading, snapshot the database to this file")
		loadFrom   = flag.String("load", "", "restore a snapshot instead of loading XML (skips conformance and the decomposition search)")
		diskIndex  = flag.Bool("disk-index", false, "serve the master index from a paged .xki file through a buffer pool instead of RAM")
		idxCache   = flag.Int64("index-cache-bytes", diskindex.DefaultCacheBytes, "buffer-pool budget for -disk-index")
		segDir     = flag.String("segdir", "", "segmented-index directory for -segop")
		segOp      = flag.String("segop", "", "offline segmented-index command: build, compact or stats (requires -segdir)")
		shardDir   = flag.String("sharddir", "", "partitioned-index directory for -shardop")
		shardOp    = flag.String("shardop", "", "partitioned-index command: split, verify or stats (requires -sharddir)")
		shardN     = flag.Int("shards", 0, "partition count for -shardop split")
		shardAddrs = flag.String("shardaddrs", "", "replica topology recorded in the split manifest for \"xkserve -shards auto\": comma-separated shard groups of |-separated replica URLs")
		nodesFile  = flag.String("nodes", "", "edge-list nodes file (CSV/TSV; requires -edges, replaces -in/-schema)")
		edgesFile  = flag.String("edges", "", "edge-list edges file (CSV/TSV; requires -nodes)")
		scorer     = flag.String("scorer", "", fmt.Sprintf("result scorer: %s (default %s)", strings.Join(rank.Names(), ", "), rank.DefaultName))
		relax      = flag.Bool("relax", false, "relax queries with unmatched keywords (drop/substitute, loudly annotated) instead of returning nothing")
	)
	flag.Parse()
	if _, err := rank.New(*scorer); err != nil {
		fatal(err)
	}
	if *loadFrom != "" && *nodesFile+*edgesFile != "" {
		fatal(fmt.Errorf("-nodes/-edges replace -load"))
	}

	switch *shardOp {
	case "":
	case "split":
		if *shardDir == "" {
			fatal(fmt.Errorf("-shardop split requires -sharddir"))
		}
		if *shardN < 1 {
			fatal(fmt.Errorf("-shardop split requires -shards ≥ 1"))
		}
	case "verify", "stats":
		if *shardDir == "" {
			fatal(fmt.Errorf("-shardop %s requires -sharddir", *shardOp))
		}
		// Maintenance commands operate on the split alone; no dataset load.
		if err := shardMaintain(*shardDir, *shardOp); err != nil {
			fatal(err)
		}
		return
	default:
		fatal(fmt.Errorf("unknown -shardop %q (want split, verify or stats)", *shardOp))
	}

	switch *segOp {
	case "":
	case "build":
		if *segDir == "" {
			fatal(fmt.Errorf("-segop build requires -segdir"))
		}
	case "compact", "stats":
		if *segDir == "" {
			fatal(fmt.Errorf("-segop %s requires -segdir", *segOp))
		}
		// Maintenance commands operate on the store alone; no dataset load.
		if err := segMaintain(*segDir, *segOp, *idxCache); err != nil {
			fatal(err)
		}
		return
	default:
		fatal(fmt.Errorf("unknown -segop %q (want build, compact or stats)", *segOp))
	}

	var sys *core.System
	var err error
	snapshot := *loadFrom
	if *loadFrom != "" {
		start := time.Now()
		sys, err = persist.LoadFileOpts(*loadFrom, persist.LoadOptions{
			DiskIndex:       *diskIndex,
			IndexCacheBytes: *idxCache,
		})
		if err != nil {
			fatal(err)
		}
		// Scorer and relaxation are serving-time choices, not snapshot
		// state: the pipeline config reads Opts per query.
		sys.Opts.Scorer = *scorer
		sys.Opts.Relax = *relax
		fmt.Fprintf(os.Stderr, "restored %d target objects, %d relations in %v\n",
			sys.Obj.NumObjects(), len(sys.Decomp.Fragments), time.Since(start).Round(time.Millisecond))
	} else {
		src, err := graphsource.Resolve(graphsource.Inputs{
			Schema: *schemaFlag, DTD: *dtdFile, XSD: *xsdFile, Spec: *specFile,
			In: *in, Nodes: *nodesFile, Edges: *edgesFile,
		})
		if err != nil {
			fatal(err)
		}
		if sys, err = build(src, core.Options{
			Z:             *z,
			Decomposition: core.DecompositionPreset(*preset),
			Scorer:        *scorer,
			Relax:         *relax,
		}, *saveTo, *diskIndex, *idxCache); err != nil {
			fatal(err)
		}
		snapshot = *saveTo
	}
	if rd, ok := sys.Index.(*diskindex.Reader); ok {
		fmt.Fprintf(os.Stderr, "master index on disk: %s (%d terms, %d postings), cache %d bytes\n",
			rd.Path(), rd.NumKeywords(), rd.NumPostings(), *idxCache)
	}
	switch {
	case *segOp == "build":
		err = segBuild(sys, *segDir)
	case *shardOp == "split":
		err = shardSplit(sys, *shardDir, *shardN, snapshot, *shardAddrs)
	default:
		serve(sys, *k, *all, *explain, *analyze)
	}
	if err != nil {
		fatal(err)
	}
}

// build loads src, snapshots it to saveTo when that is set, and with
// diskIndex serves its master index from disk: from the sidecar just
// written beside the snapshot, or else from a temporary file.
func build(src graphsource.Source, opts core.Options, saveTo string, diskIndex bool, cacheBytes int64) (*core.System, error) {
	start := time.Now()
	sys, err := graphsource.Load(src, opts)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "loaded %d nodes, %d target objects, %d relations in %v\n",
		sys.Data.NumNodes(), sys.Obj.NumObjects(), len(sys.Decomp.Fragments),
		time.Since(start).Round(time.Millisecond))
	if saveTo != "" {
		spec, err := src.Spec()
		if err != nil {
			return nil, err
		}
		if err := persist.SaveFile(saveTo, sys, spec); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "snapshot written to %s (+ %s)\n", saveTo, persist.SidecarPath(saveTo))
	}
	if !diskIndex {
		return sys, nil
	}
	var rd *diskindex.Reader
	if saveTo != "" {
		rd, err = diskindex.Open(persist.SidecarPath(saveTo), diskindex.Options{CacheBytes: cacheBytes})
	} else {
		rd, err = diskindex.CreateTemp(sys.Index.(*kwindex.Index), diskindex.Options{CacheBytes: cacheBytes})
	}
	if err != nil {
		return nil, err
	}
	sys.Index = rd
	return sys, nil
}

// shardSplit partitions the loaded master index into n self-contained
// shard directories under dir, copying the dataset snapshot (when one
// was loaded or just saved) beside each slice so shard servers can
// restore their replicated structural data from the shard directory
// alone.
func shardSplit(sys *core.System, dir string, n int, snapshot, addrs string) error {
	ix, ok := sys.Index.(*kwindex.Index)
	if !ok {
		return fmt.Errorf("-shardop split needs the in-memory master index (omit -disk-index)")
	}
	opts := shard.SplitOptions{
		Snapshot: snapshot,
		Logf:     func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) },
	}
	if addrs != "" {
		groups, err := shard.ParseTopology(addrs)
		if err != nil {
			return err
		}
		opts.Addrs = groups
	}
	start := time.Now()
	man, err := shard.Split(ix, dir, n, opts)
	if err != nil {
		return err
	}
	for _, si := range man.Shards {
		fmt.Fprintf(os.Stderr, "shard %d: %s (%d postings, %d keywords, crc %08x)\n",
			si.ID, si.Dir, si.Postings, si.Keywords, si.CRC)
	}
	fmt.Fprintf(os.Stderr, "split into %d shards at %s in %v\n", n, dir, time.Since(start).Round(time.Millisecond))
	return nil
}

// shardMaintain runs a datasetless split command: verify re-checks
// every shard file against the manifest (CRCs, readability, and the
// routing invariant that each posting hashes to its shard); stats
// prints the manifest.
func shardMaintain(dir, op string) error {
	if op == "verify" {
		man, err := shard.Verify(dir)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "split at %s verified: %d shards, scheme %s\n", dir, man.N, man.Scheme)
		return nil
	}
	man, err := shard.LoadManifest(dir)
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// segBuild bulk-loads every target object of the loaded database into
// the segmented index at dir as committed on-disk segments, then
// compacts them down to one — the offline way to seed a directory for
// xkserve -segdir. The per-batch WAL fsync is skipped: nothing is
// acknowledged to a client here, and the flush/compaction commits are
// durable on their own.
func segBuild(sys *core.System, dir string) error {
	start := time.Now()
	st, err := segidx.Open(dir, segidx.Options{NoSync: true})
	if err != nil {
		return err
	}
	docs := segidx.DocumentsFromObjectGraph(sys.Obj)
	const chunk = 1024
	for i := 0; i < len(docs); i += chunk {
		end := min(i+chunk, len(docs))
		var b segidx.Batch
		for _, d := range docs[i:end] {
			b.AddDoc(d)
		}
		if err := st.Apply(b); err != nil {
			st.Close()
			return err
		}
		if err := st.Flush(); err != nil {
			st.Close()
			return err
		}
	}
	if err := st.Compact(); err != nil {
		st.Close()
		return err
	}
	if err := st.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "segmented index built at %s: %d documents in %v\n",
		dir, len(docs), time.Since(start).Round(time.Millisecond))
	return nil
}

// segMaintain runs a datasetless store command: compact merges the
// segment set down to one, stats prints the store's shape as JSON.
func segMaintain(dir, op string, cacheBytes int64) error {
	st, err := segidx.Open(dir, segidx.Options{IndexCacheBytes: cacheBytes})
	if err != nil {
		return err
	}
	if op == "compact" {
		if err := st.Compact(); err != nil {
			st.Close()
			return err
		}
	}
	out, err := json.MarshalIndent(st.Stats(), "", "  ")
	if err != nil {
		st.Close()
		return err
	}
	fmt.Println(string(out))
	return st.Close()
}

// serve answers queries from the command line or stdin. A failed
// command-line query exits non-zero; in stdin mode a failed line is
// reported and the next one is read.
func serve(sys *core.System, k int, all, explain, analyze bool) {
	if flag.NArg() > 0 {
		if err := runQuery(sys, flag.Args(), k, all, explain, analyze); err != nil {
			fatal(fmt.Errorf("query: %w", err))
		}
		return
	}
	fmt.Fprintln(os.Stderr, "enter keyword queries, one per line (Ctrl-D to exit):")
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		words := strings.Fields(sc.Text())
		if len(words) == 0 {
			continue
		}
		if err := runQuery(sys, words, k, all, explain, analyze); err != nil {
			fmt.Fprintln(os.Stderr, "query:", err)
		}
	}
}

// runQuery answers one keyword query: its per-stage timing tree with
// -explain-analyze, its plans with -explain, otherwise its ranked
// results — the top k, or every result with -all.
func runQuery(sys *core.System, keywords []string, k int, all, explain, analyze bool) error {
	t0 := time.Now()
	if analyze {
		if all {
			k = 0
		}
		expl, err := sys.ExplainAnalyze(context.Background(), keywords, k)
		if err != nil {
			return err
		}
		fmt.Print(expl.Format())
		return nil
	}
	if explain {
		plans, err := sys.Plans(keywords)
		if err != nil {
			return err
		}
		fmt.Printf("%d candidate networks\n", len(plans))
		for _, p := range plans {
			fmt.Println(p.Explain(sys.TSS, sys.Store))
		}
		return nil
	}
	var rs []exec.Result
	var rx *pipeline.Relaxation
	if all {
		q := &pipeline.Query{Keywords: keywords, Mode: pipeline.ModeAll, Strategy: exec.AutoStrategy}
		if err := sys.Run(context.Background(), q); err != nil {
			return err
		}
		rs, rx = q.Results, q.Relaxation
	} else {
		var err error
		if rs, rx, err = sys.QueryScoredContext(context.Background(), keywords, k, ""); err != nil {
			return err
		}
	}
	if rx != nil {
		fmt.Fprintf(os.Stderr, "NOTE: query relaxed: %s\n", rx)
	}
	fmt.Printf("%d results in %v\n", len(rs), time.Since(t0).Round(time.Millisecond))
	for i, r := range rs {
		fmt.Printf("\n#%d  score %d\n%s\n", i+1, r.Score, sys.RenderResult(r))
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xkeyword:", err)
	os.Exit(1)
}
