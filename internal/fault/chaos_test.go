// Chaos suite: seeded fault scenarios over the two hardened layers —
// the paged disk index (transient read errors, bit flips, short reads)
// and the qserve serving path (latency, injected errors, hangs under a
// small admission window). Every scenario replays deterministically
// from its seed and asserts the robustness invariant end to end:
//
//	fail loudly or answer correctly — never return silently wrong
//	results.
//
// `make chaos` runs exactly this file under -race; it also runs as part
// of the ordinary test suite because the scenarios are cheap.
package fault_test

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/diskindex"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/kwindex"
	"repro/internal/qserve"
)

// chaosRand is the test-side scenario-parameter stream: splitmix64,
// like the injector's own stream, so scenario profiles are identical
// across platforms and Go releases.
type chaosRand struct{ state uint64 }

func newChaosRand(seed int64) *chaosRand {
	return &chaosRand{state: uint64(seed)*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9}
}

func (r *chaosRand) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *chaosRand) float() float64 { return float64(r.next()>>11) / (1 << 53) }
func (r *chaosRand) intn(n int) int { return int(r.next() % uint64(n)) }

// fixture is the shared fault-free ground truth: the Figure-1 system,
// its in-memory master index, an .xki written from it, and baseline
// answers for every term and query.
type fixture struct {
	sys   *core.System
	mem   *kwindex.Index
	xki   string
	terms []string
	lists map[string][]kwindex.Posting
	tos   map[string]map[int64]bool

	queries  [][]string
	scores   [][]int           // fault-free top-k score multiset per query
	universe []map[string]bool // every valid (network, bindings, score) per query
}

var (
	fixOnce sync.Once
	fix     *fixture
	fixErr  error
)

func chaosFixture(t *testing.T) *fixture {
	t.Helper()
	fixOnce.Do(func() { fix, fixErr = buildFixture() })
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fix
}

func buildFixture() (*fixture, error) {
	ds, err := datagen.TPCHFigure1()
	if err != nil {
		return nil, err
	}
	sys, err := core.LoadPrepared(ds,
		core.Options{Z: 8})
	if err != nil {
		return nil, err
	}
	mem, ok := sys.Index.(*kwindex.Index)
	if !ok {
		return nil, fmt.Errorf("fixture index is %T, want *kwindex.Index", sys.Index)
	}
	fx := &fixture{
		sys:   sys,
		mem:   mem,
		terms: mem.Terms(),
		lists: make(map[string][]kwindex.Posting),
		tos:   make(map[string]map[int64]bool),
		queries: [][]string{
			{"john"}, {"vcr"}, {"john", "vcr"}, {"us", "vcr"}, {"tv", "vcr"}, {"mike", "dvd"},
		},
	}
	for _, term := range fx.terms {
		fx.lists[term] = mem.ContainingList(term)
		fx.tos[term] = mem.TOSet(term, "")
	}
	for _, q := range fx.queries {
		// qserve asks the engine the sorted keyword bag (result and
		// binding order follow keyword order), so the baseline does too.
		q = slices.Clone(q)
		slices.Sort(q)
		rs, _, err := sys.QueryScoredContext(context.Background(), q, 10, "")
		if err != nil {
			return nil, fmt.Errorf("baseline query %v: %w", q, err)
		}
		fx.scores = append(fx.scores, scoresOf(rs))
		// The full result universe (huge k) pins down which individual
		// results are valid; ties at the top-k boundary make the exact
		// member set run-dependent, but never let an invented result in.
		all, _, err := sys.QueryScoredContext(context.Background(), q, 1<<20, "")
		if err != nil {
			return nil, fmt.Errorf("baseline universe %v: %w", q, err)
		}
		uni := make(map[string]bool, len(all))
		for _, r := range all {
			uni[r.Key()+"/"+fmt.Sprint(r.Score)] = true
		}
		fx.universe = append(fx.universe, uni)
	}
	return fx, nil
}

// writeXKI writes the fixture index to a fresh .xki under dir.
func (fx *fixture) writeXKI(dir string) (string, error) {
	path := filepath.Join(dir, "chaos.xki")
	if err := diskindex.Create(path, fx.mem); err != nil {
		return "", err
	}
	return path, nil
}

// scoresOf returns the sorted score multiset of a result list — the
// part of a top-k answer the ranking actually specifies.
func scoresOf(rs []exec.Result) []int {
	scores := make([]int, len(rs))
	for i, r := range rs {
		scores[i] = r.Score
	}
	sort.Ints(scores)
	return scores
}

// checkAnswer asserts rs is a correct top-k answer for query qi: its
// score multiset matches the fault-free baseline, and every result is a
// member of the query's full result universe. Tie order and which of
// several equal-score results sit at the k boundary are unspecified;
// a missing score, an extra score, or a fabricated result is wrong.
func (fx *fixture) checkAnswer(qi int, rs []exec.Result) error {
	if got, want := scoresOf(rs), fx.scores[qi]; !reflect.DeepEqual(got, want) {
		return fmt.Errorf("score multiset %v, want %v", got, want)
	}
	for _, r := range rs {
		if key := r.Key() + "/" + fmt.Sprint(r.Score); !fx.universe[qi][key] {
			return fmt.Errorf("result %s is not in the valid result universe", key)
		}
	}
	return nil
}

// TestChaosDiskIndex runs seeded read-fault scenarios against the paged
// disk index. Each scenario opens the same .xki through a fault-
// injecting ReaderAt and looks up every term. The invariant: a lookup
// either matches the in-memory ground truth, or the reader has recorded
// a loud soft-failure (Err() != nil). Scenarios with an in-memory
// failover must always answer correctly — a degraded primary's failed
// lookup is retried on the rebuilt fallback, never returned empty.
func TestChaosDiskIndex(t *testing.T) {
	fx := chaosFixture(t)
	xki, err := fx.writeXKI(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const scenarios = 128
	for seed := 0; seed < scenarios; seed++ {
		t.Run(fmt.Sprintf("seed=%03d", seed), func(t *testing.T) {
			t.Parallel()
			r := newChaosRand(int64(seed))
			prof := fault.Profile{
				ReadErrProb:   r.float() * 0.4,
				ReadErrStreak: 1 + r.intn(5), // sometimes beyond the retry budget
				CorruptProb:   r.float() * 0.3,
				ShortReadProb: r.float() * 0.15,
			}
			withFailover := seed%2 == 1
			inj := fault.NewInjector(int64(seed), prof)
			rd, err := diskindex.Open(xki, diskindex.Options{
				CacheBytes:     4 << 10, // tiny pool: most lookups touch the injected disk
				ListCacheBytes: -1,      // no decoded cache: every lookup re-reads and re-verifies
				Retry:          fault.RetryPolicy{Attempts: 3, Base: 20 * time.Microsecond, Max: 200 * time.Microsecond, Jitter: 0.5},
				WrapReaderAt:   inj.ReaderAt,
			})
			if err != nil {
				// Open reads the header, schema and dictionary eagerly; under
				// injected faults it may refuse the file — that is the loud
				// path, as long as it says why.
				if err.Error() == "" {
					t.Fatalf("Open failed with an empty error message")
				}
				return
			}
			defer rd.Close()

			if withFailover {
				fo := kwindex.NewFailover(rd,
					func() (kwindex.Source, error) { return fx.mem, nil }, nil)
				for _, term := range fx.terms {
					if got := fo.ContainingList(term); !reflect.DeepEqual(got, fx.lists[term]) {
						t.Fatalf("failover ContainingList(%q) diverged from ground truth", term)
					}
					if got := fo.TOSet(term, ""); !reflect.DeepEqual(got, fx.tos[term]) {
						t.Fatalf("failover TOSet(%q) diverged from ground truth", term)
					}
				}
				return
			}
			for _, term := range fx.terms {
				got := rd.ContainingList(term)
				if !reflect.DeepEqual(got, fx.lists[term]) && rd.Err() == nil {
					t.Fatalf("silently wrong ContainingList(%q): diverged with no recorded error", term)
				}
				tos := rd.TOSet(term, "")
				if !reflect.DeepEqual(tos, fx.tos[term]) && rd.Err() == nil {
					t.Fatalf("silently wrong TOSet(%q): diverged with no recorded error", term)
				}
			}
		})
	}
}

// TestChaosQserve runs seeded serving-path scenarios: the real pipeline
// behind a fault-injecting engine (latency, errors, hangs), under a
// deliberately small admission window with concurrent clients. Every
// query must either return the fault-free baseline result or a non-nil
// error — overload, cancellation and injected failures are all loud;
// a 200-with-wrong-rows is the one forbidden outcome.
func TestChaosQserve(t *testing.T) {
	fx := chaosFixture(t)
	const scenarios = 96
	for seed := 0; seed < scenarios; seed++ {
		t.Run(fmt.Sprintf("seed=%03d", seed), func(t *testing.T) {
			t.Parallel()
			r := newChaosRand(int64(1000 + seed))
			prof := fault.EngineProfile{
				MaxLatency: time.Duration(r.intn(int(2 * time.Millisecond))),
				ErrProb:    r.float() * 0.5,
				HangProb:   r.float() * 0.3,
			}
			eng := fault.NewEngine(int64(seed), fx.sys, prof)
			cacheEntries := -1
			if r.intn(2) == 0 {
				cacheEntries = 64
			}
			breaker := time.Duration(-1) // disabled
			if r.intn(2) == 0 {
				breaker = 5 * time.Millisecond
			}
			qs := qserve.New(eng, qserve.Options{
				MaxEntries:    cacheEntries,
				MaxConcurrent: 1 + r.intn(4),
				QueueWait:     time.Duration(1+r.intn(5)) * time.Millisecond,
				BreakerWindow: breaker,
				Logf:          func(string, ...any) {},
			})

			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					lr := newChaosRand(int64(seed*31 + w))
					for i := 0; i < 4; i++ {
						qi := lr.intn(len(fx.queries))
						ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
						got, _, err := qs.QueryScored(ctx, fx.queries[qi], 10, "")
						cancel()
						if err != nil {
							continue // loud failure: allowed
						}
						if aerr := fx.checkAnswer(qi, got); aerr != nil {
							t.Errorf("silently wrong answer for %v: %v", fx.queries[qi], aerr)
							return
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}
