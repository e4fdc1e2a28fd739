package qserve_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/pipeline"
	"repro/internal/qserve"
)

// fakeEngine counts pipeline runs and can block until released or until
// the context ends, standing in for a slow join execution. It records
// the keywords and scorer name of every run and answers with a fixed
// relaxation record.
type fakeEngine struct {
	calls   atomic.Int64
	block   chan struct{} // nil = return immediately
	results []exec.Result
	relax   *pipeline.Relaxation

	mu       sync.Mutex
	keywords [][]string // guarded by mu
	scorers  []string   // guarded by mu
}

func (f *fakeEngine) run(ctx context.Context) ([]exec.Result, error) {
	f.calls.Add(1)
	if f.block != nil {
		select {
		case <-f.block:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return f.results, nil
}

func (f *fakeEngine) QueryScoredContext(ctx context.Context, keywords []string, k int, scorer string) ([]exec.Result, *pipeline.Relaxation, error) {
	f.mu.Lock()
	f.keywords = append(f.keywords, keywords)
	f.scorers = append(f.scorers, scorer)
	f.mu.Unlock()
	rs, err := f.run(ctx)
	return rs, f.relax, err
}

func fig1System(t testing.TB) *core.System {
	t.Helper()
	ds, err := datagen.TPCHFigure1()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.LoadPrepared(&core.Prepared{Schema: ds.Schema, TSS: ds.TSS, Data: ds.Data, Obj: ds.Obj},
		core.Options{Z: 8})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestCacheHitAndKeyNormalization(t *testing.T) {
	sys := fig1System(t)
	qs := qserve.New(sys, qserve.Options{})
	ctx := context.Background()

	base, _, err := qs.QueryScored(ctx, []string{"john", "vcr"}, 10, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(base) == 0 {
		t.Fatal("no results")
	}
	// Permuted order, different case, extra punctuation: all one entry.
	for _, q := range [][]string{
		{"vcr", "john"},
		{"John", "VCR"},
		{"  VCR!", "john,"},
	} {
		rs, _, err := qs.QueryScored(ctx, q, 10, "")
		if err != nil {
			t.Fatalf("%v: %v", q, err)
		}
		if len(rs) != len(base) {
			t.Fatalf("%v: %d results, want %d", q, len(rs), len(base))
		}
	}
	st := qs.Stats()
	if st.Misses != 1 || st.Hits != 3 {
		t.Fatalf("hits=%d misses=%d, want 3/1", st.Hits, st.Misses)
	}
	// A different k is a different entry.
	if _, _, err := qs.QueryScored(ctx, []string{"john", "vcr"}, 1, ""); err != nil {
		t.Fatal(err)
	}
	if st := qs.Stats(); st.Misses != 2 {
		t.Fatalf("k=1 should miss: misses=%d", st.Misses)
	}
	if st := qs.Stats(); st.CacheEntries != 2 || st.CacheBytes <= 0 {
		t.Fatalf("cache usage = %d entries / %d bytes", st.CacheEntries, st.CacheBytes)
	}
}

func TestSingleflightCollapse(t *testing.T) {
	eng := &fakeEngine{block: make(chan struct{})}
	qs := qserve.New(eng, qserve.Options{MaxEntries: -1}) // no cache: isolate collapse
	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = qs.QueryScored(context.Background(), []string{"codd", "relational"}, 10, "")
		}(i)
	}
	// Let every goroutine reach the flight, then release the pipeline.
	for qs.InFlight() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	close(eng.block)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if got := eng.calls.Load(); got != 1 {
		t.Fatalf("pipeline ran %d times, want 1", got)
	}
	st := qs.Stats()
	if st.Collapses != n-1 {
		t.Fatalf("collapses=%d, want %d", st.Collapses, n-1)
	}
	if st.Misses != n {
		t.Fatalf("misses=%d, want %d", st.Misses, n)
	}
}

func TestAdmissionControlSheds(t *testing.T) {
	eng := &fakeEngine{block: make(chan struct{})}
	qs := qserve.New(eng, qserve.Options{
		MaxEntries:    -1,
		MaxConcurrent: 1,
		QueueWait:     5 * time.Millisecond,
	})
	// Occupy the only slot with a distinct query.
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, _ = qs.QueryScored(context.Background(), []string{"occupier"}, 10, "")
	}()
	for qs.InFlight() == 0 {
		time.Sleep(time.Millisecond)
	}
	// A different query cannot be admitted within the queue wait.
	_, _, err := qs.QueryScored(context.Background(), []string{"shed", "me"}, 10, "")
	if !errors.Is(err, qserve.ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if st := qs.Stats(); st.Sheds != 1 {
		t.Fatalf("sheds=%d, want 1", st.Sheds)
	}
	close(eng.block)
	<-done
}

func TestCancellationStopsFlight(t *testing.T) {
	eng := &fakeEngine{block: make(chan struct{})} // never released: only ctx can end it
	qs := qserve.New(eng, qserve.Options{MaxEntries: -1})
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := qs.QueryScored(ctx, []string{"long", "query"}, 10, "")
		errc <- err
	}()
	for qs.InFlight() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled query did not return")
	}
	// The abandoned flight's own context was cancelled, releasing the
	// engine (and the admission slot).
	deadline := time.Now().Add(2 * time.Second)
	for qs.InFlight() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("flight still holds its slot after cancellation")
		}
		time.Sleep(time.Millisecond)
	}
	if st := qs.Stats(); st.Cancels != 1 {
		t.Fatalf("cancels=%d, want 1", st.Cancels)
	}
}

func TestCancelOneWaiterKeepsFlightAlive(t *testing.T) {
	eng := &fakeEngine{block: make(chan struct{}), results: []exec.Result{{Score: 1}}}
	qs := qserve.New(eng, qserve.Options{MaxEntries: -1})
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	errs := make(chan error, 2)
	go func() {
		_, _, err := qs.QueryScored(ctx1, []string{"shared"}, 10, "")
		errs <- err
	}()
	for qs.InFlight() == 0 {
		time.Sleep(time.Millisecond)
	}
	rsc := make(chan []exec.Result, 1)
	go func() {
		rs, _, err := qs.QueryScored(context.Background(), []string{"shared"}, 10, "")
		rsc <- rs
		errs <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel1() // first caller leaves; second still waits
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Fatalf("first caller err = %v", err)
	}
	close(eng.block)
	if err := <-errs; err != nil {
		t.Fatalf("surviving caller err = %v", err)
	}
	if rs := <-rsc; len(rs) != 1 {
		t.Fatalf("surviving caller got %d results", len(rs))
	}
	if got := eng.calls.Load(); got != 1 {
		t.Fatalf("pipeline ran %d times, want 1", got)
	}
}

// TestConcurrentMixedQueries is the race-focused serving test: many
// goroutines fire identical and distinct queries through one server;
// results must match the engine and the hit/collapse counters must
// account for every request. Run under -race in CI (see Makefile).
func TestConcurrentMixedQueries(t *testing.T) {
	sys := fig1System(t)
	qs := qserve.New(sys, qserve.Options{MaxConcurrent: 4, QueueWait: 5 * time.Second})
	queries := [][]string{
		{"john", "vcr"},
		{"us", "vcr"},
		{"tv", "vcr"},
		{"mike", "dvd"},
	}
	want := make(map[int]int)
	for i, q := range queries {
		rs, err := sys.Query(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = len(rs)
	}
	const workers = 16
	const perWorker = 8
	var wg sync.WaitGroup
	errc := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				qi := (w + i) % len(queries)
				rs, _, err := qs.QueryScored(context.Background(), queries[qi], 10, "")
				if err != nil {
					errc <- fmt.Errorf("query %v: %w", queries[qi], err)
					return
				}
				if len(rs) != want[qi] {
					errc <- fmt.Errorf("query %v: %d results, want %d", queries[qi], len(rs), want[qi])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	st := qs.Stats()
	total := st.Hits + st.Misses
	if total != workers*perWorker {
		t.Fatalf("hits+misses = %d, want %d (stats: %+v)", total, workers*perWorker, st)
	}
	// Each distinct query runs the pipeline at least once; everything
	// else must be served by the cache or a collapsed flight.
	if st.Hits == 0 {
		t.Fatalf("no cache hits across %d requests: %+v", total, st)
	}
	if st.Sheds != 0 || st.Errors != 0 {
		t.Fatalf("unexpected sheds/errors: %+v", st)
	}
	if st.Served != total {
		t.Fatalf("latency histogram served %d, want %d", st.Served, total)
	}
	if st.P95 < st.P50 {
		t.Fatalf("P95 %v < P50 %v", st.P95, st.P50)
	}
}

func TestEmptyAndInvalidQueries(t *testing.T) {
	qs := qserve.New(&fakeEngine{}, qserve.Options{})
	if _, _, err := qs.QueryScored(context.Background(), nil, 10, ""); err == nil {
		t.Fatal("empty query accepted")
	}
	if _, _, err := qs.QueryScored(context.Background(), []string{"..."}, 10, ""); err == nil {
		t.Fatal("tokenless keyword accepted")
	}
}

// TestInvalidateCacheTokens checks the scoped invalidation contract:
// only cached queries whose normalized keyword bag intersects the
// ingested tokens are dropped; an empty token list drops nothing.
func TestInvalidateCacheTokens(t *testing.T) {
	eng := &fakeEngine{results: []exec.Result{{Score: 1, Ord: 1}}}
	qs := qserve.New(eng, qserve.Options{})
	ctx := context.Background()

	warm := func(kws ...string) {
		t.Helper()
		if _, _, err := qs.QueryScored(ctx, kws, 5, ""); err != nil {
			t.Fatal(err)
		}
	}
	hits := func(kws ...string) bool {
		t.Helper()
		before := eng.calls.Load()
		warm(kws...)
		return eng.calls.Load() == before
	}

	warm("john", "vcr")
	warm("Anna") // cache key holds the normalized form "anna"
	if !hits("john", "vcr") || !hits("Anna") {
		t.Fatal("warm queries are not cache hits")
	}

	// Tokens touching neither query invalidate nothing.
	qs.InvalidateCacheTokens([]string{"zebra"})
	qs.InvalidateCacheTokens(nil)
	if !hits("john", "vcr") || !hits("Anna") {
		t.Fatal("unrelated tokens invalidated cached queries")
	}

	// A token of one query drops exactly that query.
	qs.InvalidateCacheTokens([]string{"anna"})
	if hits("Anna") {
		t.Fatal("query mentioning the ingested token survived invalidation")
	}
	if !hits("john", "vcr") {
		t.Fatal("scoped invalidation dropped an unrelated cached query")
	}

	// Full invalidation drops everything.
	qs.InvalidateCache()
	if hits("john", "vcr") {
		t.Fatal("InvalidateCache left a cached query behind")
	}
}
