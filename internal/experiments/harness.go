// Package experiments regenerates the evaluation of §7: the
// decomposition comparison for top-k (Figure 15a) and full results
// (Figure 15b), the optimized-vs-naive execution speedup (Figure 16a),
// and the presentation-graph expansion comparison (Figure 16b). The
// workload mirrors the paper's: a DBLP-like database (synthetic
// citations, avg 20 per paper) queried with pairs of author names.
//
// Cost is reported both as wall-clock time and as simulated page reads
// against the relational substrate's buffer pool; the page-read series
// is the machine-independent "shape" EXPERIMENTS.md compares against the
// paper's curves.
package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/diskindex"
	"repro/internal/kwindex"
	"repro/internal/relstore"
)

// Config parameterizes an experiment run.
type Config struct {
	// DBLP sizes the dataset (default datagen.BenchDBLPParams).
	DBLP datagen.DBLPParams
	// Z and B configure the system (defaults 8 and 2, as in §7).
	Z, B int
	// Queries is how many author-pair queries to average over.
	Queries int
	// Ks is the top-K axis of Figure 15(a).
	Ks []int
	// Sizes is the CTSSN-size axis of Figures 15(b)/16(a)/16(b).
	Sizes []int
	// PoolPages bounds the simulated buffer pool every system of the
	// workload is given.
	PoolPages int
	// Seed drives query selection.
	Seed int64
	// DiskIndex serves every system's master index from a paged .xki
	// temp file through one shared buffer pool (cmd/xkbench -disk-index),
	// so the figures measure the disk-backed storage engine.
	DiskIndex bool
	// IndexCacheBytes budgets the disk-index buffer pool
	// (0 = diskindex.DefaultCacheBytes).
	IndexCacheBytes int64
}

// DefaultConfig returns the configuration used by cmd/xkbench.
func DefaultConfig() Config {
	return Config{
		DBLP:      datagen.BenchDBLPParams(),
		Z:         8,
		B:         2,
		Queries:   10,
		Ks:        []int{1, 5, 10, 20, 50, 100},
		Sizes:     []int{2, 3, 4, 5, 6},
		PoolPages: relstore.DefaultPoolPages,
		Seed:      42,
	}
}

// QuickConfig returns a small configuration for tests and -short runs.
func QuickConfig() Config {
	p := datagen.DefaultDBLPParams()
	p.AvgCitations = 8
	return Config{
		DBLP:      p,
		Z:         8,
		B:         2,
		Queries:   4,
		Ks:        []int{1, 5, 10},
		Sizes:     []int{2, 3, 4},
		PoolPages: 512,
		Seed:      42,
	}
}

func (c *Config) defaults() {
	if c.DBLP.Authors == 0 {
		c.DBLP = datagen.BenchDBLPParams()
	}
	if c.Z == 0 {
		c.Z = 8
	}
	if c.B == 0 {
		c.B = 2
	}
	if c.Queries == 0 {
		c.Queries = 10
	}
	if len(c.Ks) == 0 {
		c.Ks = []int{1, 5, 10, 20, 50, 100}
	}
	if len(c.Sizes) == 0 {
		c.Sizes = []int{2, 3, 4, 5, 6}
	}
	if c.PoolPages == 0 {
		c.PoolPages = relstore.DefaultPoolPages
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
}

// Point is one measured point of a series.
type Point struct {
	X       int     // K or CTSSN size
	Millis  float64 // average wall time per unit of work
	Cost    float64 // average weighted I/O cost (random + sequential/8)
	Lookups float64
	Results float64 // average result count
}

// Series is one labeled curve of a figure.
type Series struct {
	Label  string
	Points []Point
}

// Figure is one reproduced figure.
type Figure struct {
	ID     string // e.g. "15a"
	Title  string
	XLabel string
	Series []Series
}

// Format renders the figure as an aligned text table, one row per X,
// one column group per series.
func (f Figure) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure %s — %s\n", f.ID, f.Title)
	xs := map[int]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			xs[p.X] = true
		}
	}
	var xlist []int
	for x := range xs {
		xlist = append(xlist, x)
	}
	sort.Ints(xlist)
	fmt.Fprintf(&sb, "%-8s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&sb, " | %-24s", s.Label)
	}
	sb.WriteString("\n")
	fmt.Fprintf(&sb, "%-8s", "")
	for range f.Series {
		fmt.Fprintf(&sb, " | %9s %8s %7s %5s", "ms", "cost", "lkups", "res")
	}
	sb.WriteString("\n")
	for _, x := range xlist {
		fmt.Fprintf(&sb, "%-8d", x)
		for _, s := range f.Series {
			var pt *Point
			for i := range s.Points {
				if s.Points[i].X == x {
					pt = &s.Points[i]
				}
			}
			if pt == nil {
				fmt.Fprintf(&sb, " | %9s %8s %7s %5s", "-", "-", "-", "-")
				continue
			}
			fmt.Fprintf(&sb, " | %9.3f %8.1f %7.0f %5.0f", pt.Millis, pt.Cost, pt.Lookups, pt.Results)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// measure runs fn with reset store statistics and returns the elapsed
// time and the I/O delta.
func measure(store *relstore.Store, fn func()) (time.Duration, relstore.IOStats) {
	store.ResetStats()
	start := time.Now()
	fn()
	return time.Since(start), store.Stats.Snapshot()
}

// Workload is a prepared dataset plus the author-name query pairs used
// by every experiment, so figures share identical inputs.
type Workload struct {
	DS       *datagen.Dataset
	Prepared *core.Prepared
	Pairs    [][2]string
	Config   Config

	// Disk-backed master index, built once and shared by every system of
	// the workload when Config.DiskIndex is set.
	diskOnce sync.Once
	diskRd   *diskindex.Reader
	diskErr  error
}

// NewWorkload generates the dataset and selects Queries author pairs:
// half co-author pairs (guaranteed small results) and half random pairs.
func NewWorkload(cfg Config) (*Workload, error) {
	cfg.defaults()
	ds, err := datagen.DBLP(cfg.DBLP)
	if err != nil {
		return nil, err
	}
	w := &Workload{
		DS:       ds,
		Prepared: &core.Prepared{Schema: ds.Schema, TSS: ds.TSS, Data: ds.Data, Obj: ds.Obj},
		Config:   cfg,
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Co-author pairs.
	var coPairs [][2]string
	papers := ds.Obj.BySegment("paper")
	for _, pi := range rng.Perm(len(papers)) {
		pa := papers[pi]
		var names []string
		for _, e := range ds.Obj.Out(pa) {
			if ds.Obj.TO(e.To).Segment == "author" {
				names = append(names, authorNameOf(ds, e.To))
			}
		}
		if len(names) >= 2 {
			coPairs = append(coPairs, [2]string{names[0], names[1]})
		}
		if len(coPairs) >= (cfg.Queries+1)/2 {
			break
		}
	}
	w.Pairs = append(w.Pairs, coPairs...)
	// Random author pairs.
	authors := ds.Obj.BySegment("author")
	for len(w.Pairs) < cfg.Queries && len(authors) >= 2 {
		i, j := rng.Intn(len(authors)), rng.Intn(len(authors))
		if i == j {
			continue
		}
		w.Pairs = append(w.Pairs, [2]string{authorNameOf(ds, authors[i]), authorNameOf(ds, authors[j])})
	}
	if len(w.Pairs) == 0 {
		return nil, fmt.Errorf("experiments: no query pairs available")
	}
	return w, nil
}

func authorNameOf(ds *datagen.Dataset, to int64) string {
	sum := ds.Obj.Summary(to) // author[name=...]
	return strings.TrimSuffix(strings.SplitN(sum, "name=", 2)[1], "]")
}

// load builds a System over the shared dataset with a preset and
// installs the simulated buffer pool the figures' costs are charged
// against.
func (w *Workload) load(preset core.DecompositionPreset) (*core.System, error) {
	sys, err := core.LoadPrepared(w.Prepared, core.Options{
		Z:             w.Config.Z,
		B:             w.Config.B,
		Decomposition: preset,
	})
	if err != nil {
		return nil, err
	}
	sys.Store.Pool = relstore.NewBufferPool(w.Config.PoolPages)
	if w.Config.DiskIndex {
		rd, err := w.diskReader()
		if err != nil {
			return nil, err
		}
		sys.Index = rd
	}
	return sys, nil
}

// diskReader lazily serializes the dataset's master index to an unlinked
// temp .xki file and opens the shared paged reader over it.
func (w *Workload) diskReader() (*diskindex.Reader, error) {
	w.diskOnce.Do(func() {
		w.diskRd, w.diskErr = diskindex.CreateTemp(kwindex.Build(w.DS.Obj), diskindex.Options{CacheBytes: w.Config.IndexCacheBytes})
	})
	return w.diskRd, w.diskErr
}
