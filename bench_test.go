package repro

// Benchmarks regenerating each figure of the paper's evaluation (§7) at
// test scale, plus micro-benchmarks of the core components. The full
// paper-scale runs live in cmd/xkbench; these testing.B versions verify
// the same code paths and give per-operation costs:
//
//	Figure 15(a) -> BenchmarkFig15aTopK
//	Figure 15(b) -> BenchmarkFig15bAll
//	Figure 16(a) -> BenchmarkFig16aNaive / BenchmarkFig16aOptimized
//	Figure 16(b) -> BenchmarkFig16bExpand
import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/banks"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/decomp"
	"repro/internal/diskindex"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/kwindex"
	"repro/internal/optimizer"
	"repro/internal/presentation"
	"repro/internal/qserve"
	"repro/internal/relstore"
	"repro/internal/tss"
)

var (
	benchOnce sync.Once
	benchW    *experiments.Workload
	benchSys  map[core.DecompositionPreset]*core.System
	benchErr  error
)

func workload(b *testing.B) *experiments.Workload {
	b.Helper()
	benchOnce.Do(func() {
		cfg := experiments.QuickConfig()
		cfg.Queries = 2
		benchW, benchErr = experiments.NewWorkload(cfg)
		if benchErr != nil {
			return
		}
		benchSys = make(map[core.DecompositionPreset]*core.System)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchW
}

func system(b *testing.B, preset core.DecompositionPreset) *core.System {
	b.Helper()
	w := workload(b)
	if sys, ok := benchSys[preset]; ok {
		return sys
	}
	sys, err := core.LoadPrepared(w.Prepared, core.Options{
		Z: w.Config.Z, B: w.Config.B, Decomposition: preset,
		PoolPages: w.Config.PoolPages, SkipBlobs: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	benchSys[preset] = sys
	return sys
}

// BenchmarkFig15aTopK measures producing the top-K results of every
// candidate network of one author-pair query, per decomposition.
func BenchmarkFig15aTopK(b *testing.B) {
	presets := []core.DecompositionPreset{
		core.PresetXKeyword, core.PresetComplete, core.PresetMinClust,
		core.PresetMinNClustIndx, core.PresetMinNClustNIndx,
	}
	for _, preset := range presets {
		for _, k := range []int{1, 10} {
			b.Run(fmt.Sprintf("%s/K=%d", preset, k), func(b *testing.B) {
				sys := system(b, preset)
				w := workload(b)
				plans, err := sys.Plans(w.Pairs[0][:])
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ex := &exec.Executor{Store: sys.Store, TSS: sys.TSS, Index: sys.Index, Cache: exec.NewLookupCache(0)}
					for _, p := range plans {
						n := 0
						_ = ex.Evaluate(p.Plan, func(exec.Result) bool {
							n++
							return n < k
						})
					}
				}
			})
		}
	}
}

// BenchmarkFig15bAll measures producing all results of the author-chain
// network, per decomposition and CTSSN size.
func BenchmarkFig15bAll(b *testing.B) {
	presets := []core.DecompositionPreset{
		core.PresetXKeyword, core.PresetMinClust, core.PresetMinNClustNIndx,
	}
	for _, preset := range presets {
		for _, size := range []int{2, 3, 4} {
			b.Run(fmt.Sprintf("%s/size=%d", preset, size), func(b *testing.B) {
				sys := system(b, preset)
				plan := chainPlan(b, sys, size)
				ex := &exec.Executor{Store: sys.Store, TSS: sys.TSS, Index: sys.Index}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_ = ex.Run(plan, exec.AutoStrategy, func(exec.Result) bool { return true })
				}
			})
		}
	}
}

func chainPlan(b *testing.B, sys *core.System, size int) *optimizer.Plan {
	b.Helper()
	w := workload(b)
	rngPair := func() (string, string) {
		// Deterministic pair per size from the shared workload seed.
		rng := newRand(w.Config.Seed + int64(size))
		a1, a2, ok := experiments.PairForChain(w.DS, rng, size)
		if !ok {
			b.Skip("no chain pair at this size")
		}
		return a1, a2
	}
	a1, a2 := rngPair()
	net, err := experiments.AuthorChain(sys.TSS, a1, a2, size)
	if err != nil {
		b.Fatal(err)
	}
	opt := &optimizer.Optimizer{
		TSS: sys.TSS, Store: sys.Store, Index: sys.Index, Stats: sys.Stats,
		Fragments: sys.Decomp.Fragments, MaxJoins: sys.Opts.B,
	}
	plan, err := opt.Plan(net)
	if err != nil {
		b.Fatal(err)
	}
	return plan
}

// BenchmarkFig16aNaive and BenchmarkFig16aOptimized measure the two
// execution algorithms whose ratio is Figure 16(a)'s speedup.
func BenchmarkFig16aNaive(b *testing.B) {
	benchFig16a(b, false)
}

// BenchmarkFig16aOptimized is the caching counterpart.
func BenchmarkFig16aOptimized(b *testing.B) {
	benchFig16a(b, true)
}

func benchFig16a(b *testing.B, cached bool) {
	for _, size := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			sys := system(b, core.PresetXKeyword)
			plan := chainPlan(b, sys, size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ex := &exec.Executor{Store: sys.Store, TSS: sys.TSS, Index: sys.Index}
				if cached {
					ex.Cache = exec.NewLookupCache(0)
				}
				_ = ex.Evaluate(plan, func(exec.Result) bool { return true })
			}
		})
	}
}

// BenchmarkFig16bExpand measures one presentation-graph expansion of a
// Paper node per probe-set variant.
func BenchmarkFig16bExpand(b *testing.B) {
	variants := []string{"inlined", "minimal", "combination"}
	for _, variant := range variants {
		for _, size := range []int{2, 3} {
			b.Run(fmt.Sprintf("%s/size=%d", variant, size), func(b *testing.B) {
				sys := system(b, core.PresetXKeyword)
				w := workload(b)
				rng := newRand(w.Config.Seed + int64(size))
				a1, a2, ok := experiments.PairForChain(w.DS, rng, size)
				if !ok {
					b.Skip("no chain pair")
				}
				net, err := experiments.AuthorChain(sys.TSS, a1, a2, size)
				if err != nil {
					b.Fatal(err)
				}
				var frags []decomp.Fragment
				switch variant {
				case "inlined":
					frags = sys.InlinedFragments()
				case "minimal":
					frags = sys.MinimalFragments()
				default:
					frags = sys.Decomp.Fragments
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sess := &presentation.Session{
						TSS: sys.TSS, Obj: sys.Obj, Store: sys.Store, Index: sys.Index,
						Stats: sys.Stats, Fragments: frags, Fallback: sys.Decomp.Fragments,
						Cache: exec.NewLookupCache(0),
					}
					g, err := sess.Build(net)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := g.Expand(1, presentation.ExpandOptions{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkBaselineBANKS and BenchmarkBaselineXKeyword quantify §2's
// comparison: the data-graph baseline (BANKS-style backward search over
// all 50k+ nodes) against XKeyword's schema-derived connection
// relations, answering the same top-10 author-pair query.
func BenchmarkBaselineBANKS(b *testing.B) {
	w := workload(b)
	s := banks.NewSearcher(w.DS.Data)
	pair := w.Pairs[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Search(pair[:], banks.Options{MaxScore: 8, K: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselineXKeyword is the schema-aware counterpart.
func BenchmarkBaselineXKeyword(b *testing.B) {
	sys := system(b, core.PresetXKeyword)
	w := workload(b)
	pair := w.Pairs[0]
	if _, err := sys.Query(pair[:], 10); err != nil { // warm the CN memo
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Query(pair[:], 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQServe measures the serving layer on the DBLP dataset: cold
// runs a fresh qserve.Server per iteration (every query executes the
// full CN-generation/planning/join pipeline), warm repeats one query
// through a shared server so every iteration after the first is a
// cache hit. The ratio is the serving-layer win for repeated queries.
func BenchmarkQServe(b *testing.B) {
	sys := system(b, core.PresetXKeyword)
	w := workload(b)
	pair := w.Pairs[0][:]
	if _, err := sys.Query(pair, 10); err != nil { // warm the CN memo for both runs
		b.Fatal(err)
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			qs := qserve.New(sys, qserve.Options{})
			if _, err := qs.Query(context.Background(), pair, 10); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		qs := qserve.New(sys, qserve.Options{})
		if _, err := qs.Query(context.Background(), pair, 10); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := qs.Query(context.Background(), pair, 10); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if st := qs.Stats(); st.Hits < int64(b.N) {
			b.Fatalf("warm run missed the cache: %+v", st)
		}
	})
}

// BenchmarkPushdown measures the §8 keyword-filter pushdown ablation:
// composite (probe, keyword-TO) lookups versus probe-then-filter.
func BenchmarkPushdown(b *testing.B) {
	for _, mode := range []string{"on", "off"} {
		b.Run(mode, func(b *testing.B) {
			sys := system(b, core.PresetXKeyword)
			w := workload(b)
			plans, err := sys.Plans(w.Pairs[0][:])
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ex := &exec.Executor{Store: sys.Store, TSS: sys.TSS, Index: sys.Index, NoPushdown: mode == "off"}
				for _, p := range plans {
					_ = ex.Evaluate(p.Plan, func(exec.Result) bool { return true })
				}
			}
		})
	}
}

// Micro-benchmarks of the load-stage components.

// BenchmarkDiskIndexLookup compares master-index lookups served from RAM
// against the paged .xki reader, cold (fresh reader, empty buffer pool)
// and warm (pool and list cache primed). The pool is budgeted at half
// the index file so the cold path must actually page.
func BenchmarkDiskIndexLookup(b *testing.B) {
	w := workload(b)
	ix := kwindex.Build(w.DS.Obj)
	path := filepath.Join(b.TempDir(), "bench.xki")
	if err := diskindex.Create(path, ix); err != nil {
		b.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	// The page pool is capped below the file size so cold lookups must
	// page; the decoded-list cache keeps the budget a default serving
	// config would give it (it is derived from CacheBytes otherwise,
	// which the cap above would shrink to a few KB).
	opts := diskindex.Options{
		CacheBytes:     st.Size() / 2,
		ListCacheBytes: diskindex.DefaultCacheBytes,
	}
	terms := ix.Terms()

	b.Run("memory", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix.ContainingList(terms[i%len(terms)])
		}
	})
	b.Run("disk-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			rd, err := diskindex.Open(path, opts)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			rd.ContainingList(terms[i%len(terms)])
			b.StopTimer()
			rd.Close()
			b.StartTimer()
		}
	})
	b.Run("disk-warm", func(b *testing.B) {
		rd, err := diskindex.Open(path, opts)
		if err != nil {
			b.Fatal(err)
		}
		defer rd.Close()
		for _, t := range terms {
			rd.ContainingList(t)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rd.ContainingList(terms[i%len(terms)])
		}
	})
}

func BenchmarkMasterIndexBuild(b *testing.B) {
	w := workload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kwindex.Build(w.DS.Obj)
	}
}

func BenchmarkTargetDecomposition(b *testing.B) {
	w := workload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.DS.TSS.Decompose(w.DS.Data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCNGeneration(b *testing.B) {
	sys := system(b, core.PresetXKeyword)
	w := workload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Networks(w.Pairs[0][:]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaterializeMinimal(b *testing.B) {
	w := workload(b)
	min := decomp.Minimal(w.DS.TSS)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := newBenchStore()
		if err := decomp.Materialize(s, w.DS.Obj, min); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompositionAlgorithm(b *testing.B) {
	// XKeyword memoizes per TSS-graph structure, so after the first call
	// this measures the memoized path — the cost every Load after the
	// first pays. The cold cost appears once in any profile as the first
	// iteration's outlier (seconds at M=6).
	tg, err := tss.Derive(datagen.DBLPSchema(), datagen.DBLPSpec())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := decomp.XKeyword(tg, 6, 2); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decomp.XKeyword(tg, 6, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLookupPaths measures one relation probe per access path on
// the largest relation: the clustered primary copy, the secondary
// (backward) ordering and a hash index through the one-shot
// LookupPrefix — path resolution, probe and stats flush — and the
// composite point lookups of keyword-filter pushdown through a compiled
// Access with a caller-held IOStats, the way the executor issues them.
// A probe returns a view, so every path is 0 allocs/op.
func BenchmarkLookupPaths(b *testing.B) {
	sys := system(b, core.PresetXKeyword)
	// The largest relation by probes: the citation single edge.
	var rel = sys.Store.Relation(firstRelation(sys, 2))
	if rel == nil || rel.NumRows() == 0 {
		b.Skip("no populated relation")
	}
	var sink int
	probe := func(rel *relstore.Relation, col int) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, _ := rel.LookupPrefix([]int{col}, []int64{int64(i%1000 + 1)})
				sink += rows.Len()
			}
		}
	}
	b.Run("clustered", probe(rel, 0))
	b.Run("ordering", probe(rel, rel.Arity()-1))
	// A middle column is a prefix of neither sorted copy: hash index.
	if wide := sys.Store.Relation(firstRelation(sys, 3)); wide != nil {
		b.Run("hash", probe(wide, 1))
	}
	b.Run("pushdown", func(b *testing.B) {
		composite := rel.Access(0, 1)
		var io relstore.IOStats
		for i := 0; i < b.N; i++ {
			for to := int64(1); to <= 4; to++ {
				sink += composite.Lookup([]int64{int64(i%1000 + 1), to}, &io).Len()
			}
		}
		sys.Store.Stats.Add(io)
	})
	_ = sink
}

// firstRelation names the largest relation of at least the given arity.
func firstRelation(sys *core.System, arity int) string {
	best, rows := "", -1
	for _, name := range sys.Store.Relations() {
		if r := sys.Store.Relation(name); r.Arity() >= arity && r.NumRows() > rows {
			best, rows = name, r.NumRows()
		}
	}
	return best
}
