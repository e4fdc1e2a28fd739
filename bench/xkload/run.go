package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// env is where a run finds its tools and leaves its files.
type env struct {
	xkserve string // the server binary; "" runs the servers in this process
	work    string // temp dirs and the stored expected answers
	out     string // trace files, and server logs of failed runs
	clients int    // reader connections
}

// numWindows is how many windows of open loop at the gated rate and how
// many of closed loop an untraced run measures, taking turns. openShare
// of -seconds goes to the open-loop windows: their percentiles rest on the
// fewest samples (shard-2 is sent 90 requests a second), while a
// closed-loop window of 0.7 s already holds hundreds.
//
// Each end-to-end number is computed per window, and one window's value is
// reported (see fromBetterEnd): the best for the latencies, the one a
// quarter of the way in from the better end for qps and cpu_ms_per_query.
// The neighbours of a shared machine steal its CPU in bursts of a second
// or so; at a fifth of the load a burst multiplies a window's latency and
// a clean window shows none of it, so the best window repeats where the
// third best and the median do not. A saturated window is also sped up,
// by up to half, whenever the neighbours pause, so there the best window
// repeats worst and the quartile and the median alike; the quartile also
// withstands a disturbance that covers most of a run. bench/README.md has
// the measurements.
const (
	numWindows      = 10
	openShare       = 0.6
	latencyWindow   = 0.0
	saturatedWindow = 0.25
)

// Shares of -seconds given to each timed part of a traced run, which
// walks the whole rate ladder against the processes and spends the rest
// replaying in-process.
const (
	rungShare   = 0.20 // each of the three rungs
	tailShare   = 0.10 // closed loop
	replayShare = 0.10 // each of the three replays, at most
)

// gatedRung is the rung of a workload's rates at which p50_ms and p80_ms
// are measured: the lowest, about 20 % of what the servers can take. At
// the middle rate (40 %) queueing amplifies any loss of machine speed —
// one busy thread beside the servers doubled ram-uniform's p80 at 300
// req/s and multiplied it by six at 600 — and two sets of runs of the same
// code then differed by more than the bound.
const gatedRung = 0

// warmFor is the untimed run of the mix before measuring: long enough to
// open the connections, grow the heaps and fill the CN memo.
const warmFor = 1500 * time.Millisecond

// p99Limit is the latency limit of the rate ladder.
const p99Limit = 25.0 // ms

// result is what one run of one workload measured.
type result struct {
	workload          string
	attempted, failed int
	e2e, layer        map[string]float64
	samples           int     // open-loop samples behind p50_ms and p80_ms, all windows together
	p99               float64 // of those samples, for the report
}

func (r *result) failFrac() float64 { return ratio(float64(r.failed), float64(r.attempted)) }

func share(seconds, s float64) time.Duration {
	return time.Duration(seconds * s * float64(time.Second))
}

func sleepCtx(ctx context.Context, d time.Duration) {
	select {
	case <-ctx.Done():
	case <-time.After(d):
	}
}

// runWorkload brings the workload's topology up over the corpus, drives
// it, checks every answer, and tears it down.
func runWorkload(ctx context.Context, e *env, c *corpus, orc *oracle, w *workload, seed uint64, seconds float64, trace bool) (_ *result, err error) {
	dir, err := os.MkdirTemp(e.work, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	start := time.Now()
	tgt, err := bringUp(ctx, e, w, c, dir)
	if err != nil {
		return nil, err
	}
	bring := time.Since(start)
	defer tgt.close()
	res := &result{workload: w.name, e2e: map[string]float64{}, layer: map[string]float64{}}
	defer func() {
		if err != nil || res.failed > 0 {
			tgt.keepLogs(e.out)
		}
	}()

	res.e2e["setup_s"] = (c.build() + bring).Seconds()
	if res.e2e["store_ratio"], err = c.storeRatio(w); err != nil {
		return nil, err
	}

	gen := &generator{uni: c.uni, chk: &checker{orc: orc, strip: w.disk}, cpu: tgt.cpu}
	var writer *ingester
	if w.disk {
		writer = newIngester(tgt.url, c.ds.Obj, seed)
	}
	for i := 0; i < e.clients; i++ {
		gen.clients = append(gen.clients, newClient(tgt.url))
	}
	var m mix = uniformMix{c.uni}
	if w.zipf {
		m = newZipfMix(m, catalogueSeed, catalogueSize, zipfExponent)
	}
	ids := func(stream uint64) func(int) int {
		return func(i int) int { return m.pick(draw(seed, stream, uint64(i))) }
	}

	// Warm-up, untimed: each template once so that no first-of-shape CN
	// generation falls into a timed part, then the mix; the zipf catalogue
	// is sent whole, so the timed part starts with the result cache full.
	warm := &phase{}
	templates := []int{c.uni.pairID(0, 1)}
	for ki := range topKs {
		templates = append(templates, c.uni.titleID(0, 0, ki))
	}
	for _, id := range templates {
		warm.attempted++
		if !gen.request(ctx, gen.clients[0], id) {
			warm.failed++
		}
	}
	if writer != nil {
		writer.send(ctx, time.Now())
	}
	if z, ok := m.(zipfMix); ok {
		warm.merge(gen.closed(ctx, time.Minute, len(z.catalogue), func(i int) int { return z.catalogue[i] }))
	}
	warm.merge(gen.closed(ctx, warmFor, 0, ids(streamWarm)))

	// The timed part. The writer keeps its pace through all of it.
	stopWriter := make(chan struct{})
	writerDone := make(chan struct{})
	if writer != nil {
		go func() { defer close(writerDone); writer.run(ctx, stopWriter) }()
	} else {
		close(writerDone)
	}
	before := readCounters(tgt.url)
	self0, wall0 := selfCPU(), time.Now()
	// Request i of a stream is the same query whichever part sends it,
	// so each part continues where the last one of its kind stopped.
	var rungs, closed []*phase
	closedID := ids(streamClosed)
	if trace {
		for i, rate := range w.rates {
			d := share(seconds, rungShare)
			rungs = append(rungs, gen.open(ctx, poisson(seed, streamArrival+uint64(i)<<8, rate, d), d, ids(streamOpen+uint64(i))))
		}
		closed = []*phase{gen.closed(ctx, share(seconds, tailShare), 0, closedID)}
	} else {
		openID := ids(streamOpen)
		sentOpen, sentClosed := 0, 0
		openFor, closedFor := share(seconds, openShare/numWindows), share(seconds, (1-openShare)/numWindows)
		for i := 0; i < numWindows; i++ {
			due := poisson(seed, streamArrival+uint64(i)<<8, w.rates[gatedRung], openFor)
			openBase, closedBase := sentOpen, sentClosed
			rungs = append(rungs, gen.open(ctx, due, openFor, func(i int) int { return openID(openBase + i) }))
			sentOpen += len(due)
			p := gen.closed(ctx, closedFor, 0, func(i int) int { return closedID(closedBase + i) })
			sentClosed += p.attempted
			closed = append(closed, p)
		}
	}
	genCPU := ratio(float64(selfCPU()-self0), float64(time.Since(wall0))*float64(e.clients))
	after := readCounters(tgt.url)
	close(stopWriter)
	<-writerDone
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res.e2e["rss_mb"] = tgt.rssMB()
	for _, p := range append(append(rungs, closed...), warm) {
		res.attempted += p.attempted
		res.failed += p.failed
	}
	if writer != nil {
		res.attempted += writer.attempted
		res.failed += writer.failed
		res.layer["ingest_p50_ms"] = median(writer.lat)
		res.layer["segidx.ingest_p95_ms"] = quantile(writer.lat, 0.95)
		res.layer["segidx.disk_bytes_end"] = dirBytes(filepath.Join(dir, "seg"))
		// Durability: kill -9, restart over the same -segdir, and every
		// acknowledged batch must still be readable.
		if len(tgt.procs) > 0 {
			if err := tgt.crashFront(ctx); err != nil {
				return nil, fmt.Errorf("restart after kill -9: %w", err)
			}
			checked, lost := writer.verifyAll(ctx)
			res.attempted += checked
			res.failed += lost
		}
	}

	// The windows at the gated rate: all of them on an untraced run, that
	// rung of the ladder on a traced one.
	gated := rungs
	if trace {
		gated = rungs[gatedRung : gatedRung+1]
	}
	var pooled []float64
	for _, p := range gated {
		pooled = append(pooled, p.lat...)
	}
	res.samples, res.p99 = len(pooled), quantile(pooled, 0.99)
	res.e2e["p50_ms"] = fromBetterEnd(gated, latencyWindow, false, func(p *phase) float64 { return quantile(p.lat, 0.50) })
	res.e2e["p80_ms"] = fromBetterEnd(gated, latencyWindow, false, func(p *phase) float64 { return quantile(p.lat, 0.80) })
	res.e2e["qps"] = fromBetterEnd(closed, saturatedWindow, true, func(p *phase) float64 { return ratio(float64(len(p.lat)), p.wall.Seconds()) })
	res.e2e["cpu_ms_per_query"] = fromBetterEnd(closed, saturatedWindow, false, func(p *phase) float64 { return ratio(ms(p.cpu), float64(len(p.lat))) })

	if trace {
		ladderMetrics(res, w, rungs, e.clients)
		res.layer["xkload.gen_cpu_frac"] = genCPU
		processCounters(res, before, after)
		res.layer["datagen.generate_s"] = c.generate.Seconds()
		res.layer["core.load_s"] = c.load.Seconds()
		res.layer["persist.save_s"] = c.save.Seconds()
		res.layer["shard.split_s"] = c.split.Seconds()
		if err := replay(ctx, e, c, w, gen.chk, seed, closedID, share(seconds, replayShare), dir, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// fromBetterEnd computes f per window and returns the value the share q
// of the way in from the better end of the windows: from the lowest of a
// time, from the highest of a rate. On a machine shared with other
// tenants a disturbance only ever adds time, and it can outlast half a
// run, which moves the median of the windows; a change to the program
// moves every window. A traced run has one window of each kind and
// reports that.
func fromBetterEnd(windows []*phase, q float64, higherIsBetter bool, f func(*phase) float64) float64 {
	vals := make([]float64, len(windows))
	for i, p := range windows {
		vals[i] = f(p)
		if higherIsBetter {
			vals[i] = -vals[i]
		}
	}
	v := quantile(vals, q)
	if higherIsBetter {
		v = -v
	}
	return v
}

// ladderMetrics fills the xkload.* metrics of the three-rung ladder.
func ladderMetrics(res *result, w *workload, rungs []*phase, clients int) {
	res.layer["xkload.p99_ms_low"] = quantile(rungs[0].lat, 0.99)
	res.layer["xkload.p99_ms_mid"] = quantile(rungs[1].lat, 0.99)
	res.layer["xkload.p99_ms_high"] = quantile(rungs[2].lat, 0.99)
	res.layer["xkload.samples"] = float64(len(rungs[1].lat))
	var late, all []float64
	for i, p := range rungs {
		late = append(late, p.late...)
		all = append(all, p.lat...)
		if p.failed == 0 && !p.growing(clients) && quantile(p.lat, 0.99) <= p99Limit {
			res.layer["xkload.rate_ok_qps"] = w.rates[i]
		}
	}
	res.layer["xkload.lateness_p99_ms"] = quantile(late, 0.99)
	if supported(len(all), 0.999) {
		res.layer["xkload.p999_ms"] = quantile(all, 0.999)
	}
}

// selfCPU is this process's own user+system time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// counters are the servers' public snapshots that the front server
// exposes; absent endpoints leave their part zero.
type counters struct {
	Q struct {
		Hits, Misses, Collapses, Sheds, Evictions, Invalidations int64
	}
	P struct {
		Pipeline struct {
			Queries int64
			Stages  []struct {
				Stage string
				Out   int64
				Hits  int64 `json:"cache_hits"`
				Miss  int64 `json:"cache_misses"`
			}
		}
	}
	S struct {
		Segments             []struct{ ID uint64 }
		Flushes, Compactions int64
	}
	C struct {
		Failovers, Hedges, Degraded int64
	}
}

func readCounters(url string) counters {
	var c counters
	hc := &http.Client{Timeout: requestTimeout}
	// A 404 (not an ingesting server, not a coordinator) leaves zeros.
	_ = getJSON(hc, url+"/debug/qserve", &c.Q)
	_ = getJSON(hc, url+"/debug/pipeline", &c.P)
	_ = getJSON(hc, url+"/debug/segidx", &c.S)
	_ = getJSON(hc, url+"/debug/shard", &c.C)
	return c
}

// processCounters turns the before/after snapshots of the timed part
// into the counter-based layer metrics.
func processCounters(res *result, a, b counters) {
	hits, misses := float64(b.Q.Hits-a.Q.Hits), float64(b.Q.Misses-a.Q.Misses)
	sheds := float64(b.Q.Sheds - a.Q.Sheds)
	served := hits + misses
	res.layer["qserve.hit_frac"] = ratio(hits, served)
	res.layer["qserve.collapse_frac"] = ratio(float64(b.Q.Collapses-a.Q.Collapses), served)
	res.layer["qserve.shed_frac"] = ratio(sheds, served+sheds)
	res.layer["qserve.evictions_per_kq"] = 1000 * ratio(float64(b.Q.Evictions-a.Q.Evictions), served)
	res.layer["qserve.invalidations"] = float64(b.Q.Invalidations - a.Q.Invalidations)

	queries := float64(b.P.Pipeline.Queries - a.P.Pipeline.Queries)
	for i, st := range b.P.Pipeline.Stages {
		if i >= len(a.P.Pipeline.Stages) {
			break
		}
		prev := a.P.Pipeline.Stages[i]
		out, h, m := float64(st.Out-prev.Out), float64(st.Hits-prev.Hits), float64(st.Miss-prev.Miss)
		switch st.Stage {
		case "generate":
			res.layer["pipeline.memo_hit_frac"] = ratio(h, h+m)
			res.layer["pipeline.cns_per_query"] = ratio(out, queries)
		case "optimize":
			res.layer["pipeline.plans_per_query"] = ratio(out, queries)
		case "execute":
			res.layer["exec.lookup_hit_frac"] = ratio(h, h+m)
		case "rank":
			res.layer["pipeline.results_per_query"] = ratio(out, queries)
		}
	}
	res.layer["segidx.flushes"] = float64(b.S.Flushes - a.S.Flushes)
	res.layer["segidx.compactions"] = float64(b.S.Compactions - a.S.Compactions)
	res.layer["segidx.segments_end"] = float64(len(b.S.Segments))
	res.layer["shard.hedges"] = float64(b.C.Hedges - a.C.Hedges)
	res.layer["shard.failovers"] = float64(b.C.Failovers - a.C.Failovers)
	res.layer["shard.degraded"] = float64(b.C.Degraded - a.C.Degraded)
}

// dirBytes sums the regular files under dir.
func dirBytes(dir string) float64 {
	var total int64
	_ = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error { // a file vanishing mid-walk (compaction) is not an error here
		if err == nil && fi.Mode().IsRegular() {
			total += fi.Size()
		}
		return nil
	})
	return float64(total)
}
