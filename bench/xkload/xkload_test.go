package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false}, // 9.5 beyond the median
		{20, 0.50, true},
		{100, 0.90, true},
		{999, 0.95, true}, // 9.99 beyond p99: not enough
		{1000, 0.99, true},
		{9999, 0.99, true},
		{10000, 0.999, true},
	} {
		got, ok := highestPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	if got := quantile(xs, 0.99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99 (nearest rank)", got)
	}
	if got := quantile(xs, 0.5); got != 50 {
		t.Errorf("median of 1..100 = %v, want 50", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

// The reported window is counted from the better end whichever way
// "better" points, so seven disturbed windows of ten do not move it.
func TestFromBetterEndIgnoresDisturbedWindows(t *testing.T) {
	var windows []*phase
	for _, ms := range []float64{90, 2.0, 80, 2.2, 70, 60, 2.1, 50, 40, 30} {
		windows = append(windows, &phase{lat: []float64{ms}})
	}
	lat := func(p *phase) float64 { return p.lat[0] }
	rate := func(p *phase) float64 { return 1000 / p.lat[0] }
	if got := fromBetterEnd(windows, 0, false, lat); got != 2.0 {
		t.Errorf("a time, q=0: got %v, want the lowest, 2.0", got)
	}
	if got := fromBetterEnd(windows, 0.25, false, lat); got != 2.2 {
		t.Errorf("a time, q=0.25: got %v, want the third lowest, 2.2", got)
	}
	if got, want := fromBetterEnd(windows, 0.25, true, rate), rate(windows[3]); got != want {
		t.Errorf("a rate, q=0.25: got %v, want the third highest, %v", got, want)
	}
	if got := fromBetterEnd(windows[:1], 0.25, false, lat); got != 90 {
		t.Errorf("one window: got %v, want that window, 90", got)
	}
}

func testUniverse() *universe {
	u := &universe{authors: []string{"a0", "b1", "c2", "d3", "e4"}, words: []string{"web", "xml"}}
	u.pairs = len(u.authors) * (len(u.authors) - 1) / 2
	return u
}

func TestUniverseIsDenseAndSorted(t *testing.T) {
	u := testUniverse()
	seen := map[query]bool{}
	for id := 0; id < u.size(); id++ {
		q := u.query(id)
		if q.a > q.b {
			t.Fatalf("query %d = %+v: keywords not in order", id, q)
		}
		if seen[q] {
			t.Fatalf("query %d = %+v appears twice", id, q)
		}
		seen[q] = true
	}
	for i := range u.authors {
		for j := range u.authors {
			if i == j {
				continue
			}
			q := u.query(u.pairID(i, j))
			a, b := u.authors[i], u.authors[j]
			if a > b {
				a, b = b, a
			}
			if q.a != a || q.b != b || q.k != 10 {
				t.Fatalf("pair (%d,%d) decodes to %+v", i, j, q)
			}
		}
	}
	if q := u.query(u.titleID(1, 3, 2)); q != (query{"d3", "xml", 50}) {
		t.Fatalf("titleID(1,3,2) decodes to %+v", q)
	}
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	u := testUniverse()
	seq := func(m mix, seed uint64) []int {
		out := make([]int, 2000)
		for i := range out {
			out[i] = m.pick(draw(seed, streamClosed, uint64(i)))
		}
		return out
	}
	uni := uniformMix{u}
	if !reflect.DeepEqual(seq(uni, 7), seq(uni, 7)) {
		t.Error("uniform mix: same seed, different sequence")
	}
	if reflect.DeepEqual(seq(uni, 7), seq(uni, 8)) {
		t.Error("uniform mix: different seeds, same sequence")
	}
	pairs := 0
	for _, id := range seq(uni, 7) {
		if id < 0 || id >= u.size() {
			t.Fatalf("uniform mix drew %d outside the universe of %d", id, u.size())
		}
		if id < u.pairs {
			pairs++
		}
	}
	if pairs < 1300 || pairs > 1500 {
		t.Errorf("uniform mix drew %d author pairs of 2000, want about 70%%", pairs)
	}

	z := newZipfMix(uni, 7, 50, zipfExponent)
	if !reflect.DeepEqual(seq(z, 3), seq(newZipfMix(uni, 7, 50, zipfExponent), 3)) {
		t.Error("zipf mix: same seeds, different sequence")
	}
	count := map[int]int{}
	for i := 0; i < 20000; i++ {
		count[sortSearch(z.cdf, unit(draw(3, streamClosed, uint64(i))))]++
	}
	if !(count[0] > count[1] && count[1] > count[4] && count[4] > count[40]) {
		t.Errorf("zipf ranks not skewed: rank0=%d rank1=%d rank4=%d rank40=%d", count[0], count[1], count[4], count[40])
	}

	a, b := poisson(5, streamArrival, 1000, time.Second), poisson(5, streamArrival, 1000, time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Error("poisson: same seed, different arrivals")
	}
	if reflect.DeepEqual(a, poisson(6, streamArrival, 1000, time.Second)) {
		t.Error("poisson: different seeds, same arrivals")
	}
	if math.Abs(float64(len(a))-1000) > 120 {
		t.Errorf("poisson at 1000/s for 1 s gave %d arrivals", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatal("poisson arrivals not ascending")
		}
	}
}

func sortSearch(cdf []float64, x float64) int {
	for i, c := range cdf {
		if c >= x {
			return i
		}
	}
	return len(cdf) - 1
}

// TestOpenLoopCountsFromDueTime stalls the server on its first request:
// with one connection, the requests that were due during the stall must
// carry it in their latency, as they would not if each were timed from
// when it was finally sent.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const stall = 300 * time.Millisecond
	var served atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 1 {
			time.Sleep(stall)
		}
		_, _ = w.Write([]byte("same answer"))
	})
	srv := httptest.NewServer(h)
	defer srv.Close()
	u := testUniverse()
	// The oracle asks a handler that never stalls for the same body.
	orc := &oracle{uni: u, table: make([]atomic.Uint64, u.size()), handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("same answer"))
	})}
	g := &generator{clients: []*client{newClient(srv.URL)}, uni: u, chk: &checker{orc: orc}, cpu: func() time.Duration { return 0 }}
	var due []time.Duration
	for i := 0; i < 20; i++ {
		due = append(due, time.Duration(i)*10*time.Millisecond)
	}
	p := g.open(context.Background(), due, 400*time.Millisecond, func(i int) int { return i % u.size() })
	if p.failed != 0 || len(p.lat) != len(due) {
		t.Fatalf("failed %d, timed %d of %d", p.failed, len(p.lat), len(due))
	}
	// Arrival i was due at 10i ms and could not be sent before the stall
	// ended, so it waited at least stall-10i ms.
	late := 0
	for _, l := range p.lat {
		if l >= 100 {
			late++
		}
	}
	if late < 15 {
		t.Errorf("only %d of 20 latencies show the 300 ms stall: %v", late, p.lat)
	}
	if p.backlogMid == 0 {
		t.Errorf("no backlog seen half-way, during the stall")
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 70, End: 80},
		{ID: 5, Parent: 2, Name: "a.child", Start: 15, End: 25},
	}
	self := selfTimes(spans)
	want := map[int32]int64{
		1: 100 - (50 + 10), // children cover [10,60] and [70,80]
		2: 30 - 10,
		3: 30,
		4: 10,
		5: 10,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	kids := childrenOf(spans)
	// The blocking chain is c, then b (a ends after b starts).
	if got := blockingSum(spans[0], kids, self); got != 40+10+30 {
		t.Errorf("blocking sum %d, want 80", got)
	}
	// Sequential children: the self times add up to the root exactly.
	seq := []span{
		{ID: 1, Name: "root", Start: 0, End: 50},
		{ID: 2, Parent: 1, Name: "x", Start: 5, End: 20},
		{ID: 3, Parent: 1, Name: "y", Start: 20, End: 45},
		{ID: 4, Parent: 3, Name: "z", Start: 25, End: 30},
	}
	self = selfTimes(seq)
	var sum int64
	for _, v := range self {
		sum += v
	}
	if sum != 50 {
		t.Errorf("sequential self times sum to %d, want the root's 50", sum)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	root := tr.begin("webdemo")
	eng := tr.begin("engine")
	src := tr.child("kwindex.source")
	tr.endChild(src)
	tr.end(eng)
	probe := tr.child("shard.stats")
	tr.endChild(probe)
	tr.end(root)
	next := tr.begin("webdemo")
	tr.end(next)
	got := [][3]int32{}
	for _, s := range tr.spans {
		got = append(got, [3]int32{s.ID, s.Parent, s.Req})
	}
	want := [][3]int32{{1, 0, 1}, {2, 1, 1}, {3, 2, 1}, {4, 1, 1}, {5, 0, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("(id, parent, request) = %v, want %v", got, want)
	}
}

func TestStripMarkers(t *testing.T) {
	for in, want := range map[string]string{
		"paper[title=xml views xkm000012 pages=1-12]": "paper[title=xml views pages=1-12]",
		"no marker here": "no marker here",
		"a xkm1 b xkm22": "a b",
		"title=join xkm000003\",\"objects\":[\"x xkm000003": "title=join\",\"objects\":[\"x",
	} {
		if got := string(stripMarkers([]byte(in))); got != want {
			t.Errorf("stripMarkers(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestBenchmarkJSONMatchesHarness keeps the contract file and the
// harness's own tables from drifting apart.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit, Why string }
	var spec struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, harness %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []named, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s (%s), harness %s (%s)", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestQuickSmoke runs all four workloads, traced, with the servers in
// this process on the small corpus.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a corpus (the Z=8 decomposition search takes seconds)")
	}
	var stdout, stderr bytes.Buffer
	code := xkload([]string{"-quick", "-seconds", "1", "-trace", "1", "-work", t.TempDir(), "-out", t.TempDir()}, &stdout, &stderr)
	t.Log(stderr.String())
	if code != 0 {
		t.Fatalf("xkload -quick exited %d", code)
	}
	for _, w := range workloads {
		if !bytes.Contains(stderr.Bytes(), []byte("\n"+w.name+": attempted")) {
			t.Errorf("no report for %s", w.name)
		}
	}
}
