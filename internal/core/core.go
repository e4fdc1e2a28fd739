// Package core is the XKeyword system facade: it wires the load stage —
// schema conformance, target decomposition, master index, statistics,
// target-object BLOBs and connection-relation materialization — and the
// query stage — CN generation, CTSSN reduction, plan optimization and
// execution (paper §4, Figure 7).
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/decomp"
	"repro/internal/kwindex"
	"repro/internal/pipeline"
	"repro/internal/rank"
	"repro/internal/relstore"
	"repro/internal/schema"
	"repro/internal/tss"
	"repro/internal/xmlgraph"
)

// DecompositionPreset selects the §7 decomposition variant to build.
type DecompositionPreset string

const (
	// PresetXKeyword is the inlined, non-MVD-where-possible decomposition
	// of Figure 12 plus the minimal single-edge fragments (the default).
	PresetXKeyword DecompositionPreset = "xkeyword"
	// PresetComplete materializes every fragment of size up to L.
	PresetComplete DecompositionPreset = "complete"
	// PresetMinClust is minimal with all clusterings.
	PresetMinClust DecompositionPreset = "minclust"
	// PresetMinNClustIndx is minimal with hash indexes only.
	PresetMinNClustIndx DecompositionPreset = "minnclustindx"
	// PresetMinNClustNIndx is minimal with no physical design at all.
	PresetMinNClustNIndx DecompositionPreset = "minnclustnindx"
)

// Options configure Load.
type Options struct {
	// Z is the maximum MTNN size of interest (default 6).
	Z int
	// B is the join budget per CTSSN (default 2).
	B int
	// MaxKeywords sizes the CTSSN bound M = f(Z) (default 2).
	MaxKeywords int
	// Decomposition preset (default PresetXKeyword).
	Decomposition DecompositionPreset
	// PoolPages is the buffer-pool capacity (default relstore's).
	PoolPages int
	// CacheSize bounds the executor's lookup cache in entries; 0 means
	// unlimited, negative disables caching (the naive algorithm).
	CacheSize int
	// SkipBlobs skips target-object BLOB construction (benchmarks).
	SkipBlobs bool
	// StrictMinimal drops results that violate the strict MTNN
	// minimality of §3.1 (a leaf whose keywords already appear in
	// another bound target object). Off by default, matching the
	// paper's system (and DISCOVER/DBXplorer), which emit them.
	StrictMinimal bool
	// Scorer names the default result scorer (rank.Names; "" means
	// edgecount, the paper's ranking). Validated at load time; a query
	// may override it per call via the QueryScored entry points.
	Scorer string
	// Relax lets the pipeline rewrite no-match keywords (substitute or
	// drop, loudly recorded in the returned Relaxation) instead of
	// returning zero results. Off by default.
	Relax bool
}

func (o *Options) defaults() {
	if o.Z == 0 {
		o.Z = 6
	}
	if o.B == 0 {
		o.B = 2
	}
	if o.MaxKeywords == 0 {
		o.MaxKeywords = 2
	}
	if o.Decomposition == "" {
		o.Decomposition = PresetXKeyword
	}
	if o.PoolPages == 0 {
		o.PoolPages = relstore.DefaultPoolPages
	}
}

// System is a loaded XKeyword instance.
type System struct {
	Schema *schema.Graph
	TSS    *tss.Graph
	Data   *xmlgraph.Graph
	Obj    *tss.ObjectGraph
	Store  *relstore.Store
	// Index is the master index backend (see PostingSource). Load builds
	// the in-memory index; persist and the cmds swap in a disk-backed
	// reader when -disk-index is set.
	Index  PostingSource
	Stats  *tss.Stats
	Decomp *decomp.Decomposition
	// M is the CTSSN size bound f(Z) the decomposition was built for.
	M    int
	Opts Options

	// netMemo caches the compiled derivation (the shape template) per
	// keyword-shape signature. It lives on the System (not in a package
	// global) so the memo is released with the System and cannot grow
	// for the life of the process when many systems are loaded. Lazily
	// initialized by memo(): Systems are also built by struct literal
	// outside this package (e.g. internal/persist), which cannot set
	// unexported fields.
	netMemo  *netMemo
	memoOnce sync.Once

	// metrics accumulates per-stage pipeline statistics across every
	// query this System serves (/debug/pipeline). Lazily initialized by
	// PipelineMetrics for the same struct-literal reason as netMemo.
	metrics     *pipeline.Metrics
	metricsOnce sync.Once

	// summaries memoises the object graph's summary of each target
	// object (see objectSummary), one slot per TO, allocated on first
	// use for the same struct-literal reason as netMemo.
	summaries     []atomic.Pointer[string]
	summariesOnce sync.Once
}

// IndexHealth classifies the master-index backend's state for the
// serving layer's health endpoint.
type IndexHealth string

const (
	// IndexOK: the backend is serving normally.
	IndexOK IndexHealth = "ok"
	// IndexDegraded: the primary backend failed but a fallback (rebuilt
	// in-memory index) is answering correctly. Results are right; latency
	// and memory footprint may not be.
	IndexDegraded IndexHealth = "degraded"
	// IndexUnavailable: the backend has failed and no fallback exists —
	// lookups return empty results that must not be trusted.
	IndexUnavailable IndexHealth = "unavailable"
)

// IndexHealthState reports the index backend's health and the first
// error behind a non-ok state. A bare fallible backend (disk reader
// without failover) that has recorded an error is unavailable: its
// lookups return silently empty results, which the serving layer must
// refuse to pass off as answers.
func (s *System) IndexHealthState() (IndexHealth, error) {
	return SourceHealth(s.Index)
}

// SourceHealth classifies any index source's health — the shared logic
// behind IndexHealthState, also used by shard servers for their
// partition source.
func SourceHealth(src kwindex.Source) (IndexHealth, error) {
	switch ix := src.(type) {
	case *kwindex.Failover:
		if !ix.Degraded() {
			return IndexOK, nil
		}
		if rerr := ix.RebuildErr(); rerr != nil {
			return IndexUnavailable, fmt.Errorf("primary failed (%v); rebuild failed: %w", ix.Err(), rerr)
		}
		if !ix.Healed() {
			return IndexUnavailable, ix.Err()
		}
		return IndexDegraded, ix.Err()
	case interface{ Err() error }:
		if err := ix.Err(); err != nil {
			return IndexUnavailable, err
		}
	}
	return IndexOK, nil
}

// PipelineMetrics returns the System's cumulative per-stage pipeline
// counters, creating the sink on first use.
func (s *System) PipelineMetrics() *pipeline.Metrics {
	s.metricsOnce.Do(func() {
		if s.metrics == nil {
			s.metrics = pipeline.NewMetrics()
		}
	})
	return s.metrics
}

// PipelineSnapshot captures the current per-stage pipeline counters —
// the qserve serving layer embeds it into its stats snapshot so cached
// and executed queries are distinguishable.
func (s *System) PipelineSnapshot() pipeline.Snapshot {
	return s.PipelineMetrics().Snapshot()
}

// memo returns the System's shape memo, creating it on first use.
func (s *System) memo() *netMemo {
	s.memoOnce.Do(func() {
		if s.netMemo == nil {
			s.netMemo = newNetMemo(netMemoCap)
		}
	})
	return s.netMemo
}

// Load runs the load stage of Figure 7 over a typed or untyped data
// graph: conformance/type assignment, TSS derivation, target
// decomposition, master index, statistics, BLOBs, and connection
// relation materialization under the chosen decomposition preset.
func Load(sg *schema.Graph, spec tss.Spec, data *xmlgraph.Graph, opts Options) (*System, error) {
	opts.defaults()
	if err := sg.Assign(data); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	tg, err := tss.Derive(sg, spec)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	og, err := tg.Decompose(data)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return LoadPrepared(&Prepared{Schema: sg, TSS: tg, Data: data, Obj: og}, opts)
}

// Prepared bundles an already-decomposed dataset, so several systems
// (e.g. one per decomposition preset) can share the load-stage graphs.
type Prepared struct {
	Schema *schema.Graph
	TSS    *tss.Graph
	Data   *xmlgraph.Graph
	Obj    *tss.ObjectGraph
}

// LoadPrepared builds a System over an already-decomposed dataset.
func LoadPrepared(p *Prepared, opts Options) (*System, error) {
	opts.defaults()
	if opts.Z < 0 || opts.B < 0 || opts.MaxKeywords < 0 {
		return nil, fmt.Errorf("core: negative option (Z=%d B=%d MaxKeywords=%d)",
			opts.Z, opts.B, opts.MaxKeywords)
	}
	if p == nil || p.Schema == nil || p.TSS == nil || p.Data == nil || p.Obj == nil {
		return nil, fmt.Errorf("core: incomplete prepared dataset")
	}
	if _, err := rank.New(opts.Scorer); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	s := &System{
		Schema: p.Schema,
		TSS:    p.TSS,
		Data:   p.Data,
		Obj:    p.Obj,
		Store:  relstore.NewStore(opts.PoolPages),
		Opts:   opts,
	}
	s.Index = kwindex.Build(s.Obj)
	s.Stats = s.Obj.CollectStats()
	s.M = SizeBound(s.TSS, s.Data, opts.Z, opts.MaxKeywords)

	var d *decomp.Decomposition
	var err error
	switch opts.Decomposition {
	case PresetXKeyword:
		d, err = decomp.XKeyword(s.TSS, s.M, opts.B)
	case PresetComplete:
		d = decomp.Complete(s.TSS, decomp.JoinBound(s.M, opts.B))
	case PresetMinClust:
		d = decomp.MinClust(s.TSS)
	case PresetMinNClustIndx:
		d = decomp.MinNClustIndx(s.TSS)
	case PresetMinNClustNIndx:
		d = decomp.MinNClustNIndx(s.TSS)
	default:
		err = fmt.Errorf("core: unknown decomposition preset %q", opts.Decomposition)
	}
	if err != nil {
		return nil, err
	}
	s.Decomp = d
	if err := decomp.Materialize(s.Store, s.Obj, d); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if !opts.SkipBlobs {
		for _, id := range s.Obj.Objects() {
			blob, err := s.Obj.BlobXML(id)
			if err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
			s.Store.PutBlob(id, blob)
		}
	}
	return s, nil
}

// SizeBound computes M = f(Z): the maximum CTSSN size a CN of size Z can
// reduce to, assuming keywords match element values. Every valued schema
// node sits at some containment depth below its segment head; each of
// the (up to MaxKeywords) keyword endpoints spends at least the minimal
// such depth on intra-segment edges, which vanish in the reduction. For
// the DBLP graph of Figure 14 this gives f(8) = 8 - 2 = 6, as in §7.
// Keywords matching element tags of segment heads can exceed the bound;
// the optimizer then falls back to more than B joins.
func SizeBound(tg *tss.Graph, data *xmlgraph.Graph, z, maxKeywords int) int {
	depth := make(map[string]int) // schema node -> intra-segment depth
	for _, segName := range tg.Segments() {
		seg := tg.Segment(segName)
		depth[seg.Head] = 0
		// BFS down intra-segment containment.
		queue := []string{seg.Head}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, e := range tg.Schema.Out(cur) {
				if tg.SegmentOf(e.To) == segName {
					if _, seen := depth[e.To]; !seen {
						depth[e.To] = depth[cur] + 1
						queue = append(queue, e.To)
					}
				}
			}
		}
	}
	minValueDepth := -1
	for _, id := range data.Nodes() {
		n := data.Node(id)
		if n.Value == "" {
			continue
		}
		if d, ok := depth[n.Type]; ok {
			if minValueDepth < 0 || d < minValueDepth {
				minValueDepth = d
			}
			if minValueDepth == 0 {
				break
			}
		}
	}
	if minValueDepth < 0 {
		minValueDepth = 0
	}
	m := z - maxKeywords*minValueDepth
	if m < 1 {
		m = 1
	}
	return m
}
