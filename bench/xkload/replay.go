package main

import (
	"bytes"
	"context"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/diskindex"
	"repro/internal/exec"
	"repro/internal/kwindex"
	"repro/internal/pipeline"
	"repro/internal/qserve"
	"repro/internal/relstore"
	"repro/internal/shard"
)

const (
	// maxReplay is how many closed-loop requests the traced run replays.
	maxReplay = 2000
	// ingestEvery interleaves one write batch per so many replayed reads
	// on disk-ingest, about the ratio the closed loop sees at 20 batches/s.
	ingestEvery = 20
	// payloadSample is how many captured payloads the direct calls to
	// the wire codec, the merge and Store.Apply are timed on.
	payloadSample = 200
)

// replay is the traced run: the workload's first closed-loop requests,
// one at a time, in this process, over two topologies assembled like
// xkserve's — one with every layer boundary wrapped, which gives the
// spans, and one plain. Each request is served by both in turn, so the
// two see the same heap and the same moments of a shared machine, and
// the difference of their total times is what tracing costs.
func replay(ctx context.Context, e *env, c *corpus, w *workload, chk *checker, seed uint64, id func(int) int, budget time.Duration, dir string, res *result) error {
	tr := newTracer()
	ip, err := buildInProc(w, c, filepath.Join(dir, "seg-traced"), tr)
	if err != nil {
		return err
	}
	defer ip.close()
	plain, err := buildInProc(w, c, filepath.Join(dir, "seg-plain"), nil)
	if err != nil {
		return err
	}
	defer plain.close()
	// serve answers request i from one topology, with disk-ingest's write
	// batches in between, and checks the answer once the clock is stopped.
	serve := func(ip *inproc, writer *ingester, i int) time.Duration {
		start := time.Now()
		if writer != nil && i%ingestEvery == 0 {
			_, body := writer.batch(i / ingestEvery)
			answer(ip.handler, http.MethodPost, "/api/ingest", bytes.NewReader(body))
		}
		rec := answer(ip.handler, http.MethodGet, c.uni.query(id(i)).path(), nil)
		took := time.Since(start)
		res.attempted++
		if !chk.ok(id(i), rec.Code, rec.Body.Bytes()) {
			res.failed++
		}
		return took
	}
	var writers [2]*ingester
	if w.disk {
		writers = [2]*ingester{newIngester("", c.ds.Obj, seed), newIngester("", c.ds.Obj, seed)}
	}

	var disk0 diskindex.Stats
	if ip.reader != nil {
		disk0 = ip.reader.Stats()
	}
	io0, pipe0 := nodeStats(ip)
	var tracedTime, plainTime time.Duration
	n := 0
	for start := time.Now(); n < maxReplay && ctx.Err() == nil && time.Since(start) < 2*budget; n++ {
		tracedTime += serve(ip, writers[0], n)
		plainTime += serve(plain, writers[1], n)
	}
	if n == 0 {
		return ctx.Err()
	}
	io1, pipe1 := nodeStats(ip)
	spans := append([]span(nil), tr.spans...)

	res.layer["xkload.replayed"] = float64(n)
	res.layer["xkload.trace_overhead_frac"] = ratio(float64(tracedTime-plainTime), float64(plainTime))
	res.layer["persist.load_s"] = ip.load.Seconds()
	spanMetrics(res, spans, ip, n, w)

	// Counters of the layers that no endpoint exposes.
	runs := float64(pipe1[0].Queries - pipe0[0].Queries) // pipeline runs on the front node
	if ip.reader != nil {
		d := ip.reader.Stats()
		res.layer["diskindex.page_hit_frac"] = ratio(float64(d.PageHits-disk0.PageHits), float64(d.PageHits-disk0.PageHits+d.PageMisses-disk0.PageMisses))
		res.layer["diskindex.list_hit_frac"] = ratio(float64(d.ListHits-disk0.ListHits), float64(d.ListHits-disk0.ListHits+d.ListMisses-disk0.ListMisses))
		res.layer["diskindex.bytes_read_per_query"] = ratio(float64(d.BytesRead-disk0.BytesRead), float64(n))
	}
	var lookups, rows, hits, reads float64
	for i := range io1 {
		lookups += float64(io1[i].Lookups - io0[i].Lookups)
		rows += float64(io1[i].RowsRead - io0[i].RowsRead)
		hits += float64(io1[i].PageHits - io0[i].PageHits)
		reads += float64(io1[i].PageReads - io0[i].PageReads)
	}
	res.layer["relstore.lookups_per_query"] = ratio(lookups, runs)
	res.layer["relstore.rows_read_per_result"] = ratio(rows, float64(ip.results.Load()))
	res.layer["relstore.pool_hit_frac"] = ratio(hits, hits+reads)
	if ip.coord != nil {
		// Inside a coordinator and its shards the stages cannot be
		// wrapped; their own cumulative clocks stand in: the
		// coordinator's derivation plus the slower shard, per query.
		for s, name := range pipeline.StageNames {
			var slowest int64
			for i := 1; i < len(pipe1); i++ {
				if d := pipe1[i].Stages[s].TotalNanos - pipe0[i].Stages[s].TotalNanos; d > slowest {
					slowest = d
				}
			}
			res.layer["pipeline."+name+"_us"] = ratio(float64(pipe1[0].Stages[s].TotalNanos-pipe0[0].Stages[s].TotalNanos+slowest)/1e3, runs)
		}
	}

	if err := os.MkdirAll(e.out, 0o755); err != nil {
		return err
	}
	if err := writeTrace(filepath.Join(e.out, "trace-"+w.name+".json"), spans); err != nil {
		return err
	}

	directQserve(ctx, res, ip, tr, c, id, n)
	createTime(res, ip, dir)
	if ip.coord != nil {
		codecTimes(ctx, res, ip, c.uni, id, n)
	}
	if ip.store != nil {
		applyTimes(res, ip, newIngester("", c.ds.Obj, seed), n/ingestEvery+1)
	}
	return ctx.Err()
}

// nodeStats snapshots the relstore I/O counters and the pipeline clocks
// of every node, the front one first.
func nodeStats(ip *inproc) ([]relstore.IOStats, []pipeline.Snapshot) {
	var io []relstore.IOStats
	var ps []pipeline.Snapshot
	for _, sys := range ip.nodes {
		io = append(io, sys.Store.Stats.Snapshot())
		ps = append(ps, sys.PipelineSnapshot())
	}
	return io, ps
}

// spanMetrics turns the wrapped pass's spans into per-layer times.
func spanMetrics(res *result, spans []span, ip *inproc, n int, w *workload) {
	self, kids := selfTimes(spans), childrenOf(spans)
	var rootSelf, sumFrac, engines float64
	var coordSelf, lookup, execute []float64
	total := map[string]float64{} // self time by span name, ns
	for _, s := range spans {
		total[s.Name] += float64(self[s.ID])
		switch s.Name {
		case "webdemo":
			rootSelf += float64(self[s.ID])
			sumFrac += ratio(float64(blockingSum(s, kids, self)), float64(s.dur()))
		case "engine":
			engines++
		case "shard.coord":
			engines++
			// The slowest shard sets each phase's time.
			var l, x int64
			for _, k := range kids[s.ID] {
				switch {
				case k.Name == "shard.lookup" && k.dur() > l:
					l = k.dur()
				case k.Name == "shard.execute" && k.dur() > x:
					x = k.dur()
				}
			}
			lookup = append(lookup, float64(l)/1e3)
			execute = append(execute, float64(x)/1e3)
			coordSelf = append(coordSelf, float64(s.dur()-l-x)/1e3)
		}
	}
	res.layer["xkload.span_sum_frac"] = sumFrac / float64(n)
	// Root self time is the web handler's and qserve's together; the
	// direct replay subtracts qserve's share afterwards.
	res.layer["webdemo.self_us"] = rootSelf / 1e3 / float64(n)
	res.layer["webdemo.resp_bytes"] = ratio(float64(ip.web.seen["webdemo"].respBytes), float64(n))
	if ip.source != nil {
		for _, name := range pipeline.StageNames {
			res.layer["pipeline."+name+"_us"] = ratio(total["pipeline."+name]/1e3, engines)
		}
		res.layer["kwindex.source_calls_per_query"] = ratio(float64(ip.source.calls), engines)
		res.layer["kwindex.source_us_per_call"] = ratio(total["kwindex.source"]/1e3, float64(ip.source.calls))
		res.layer["kwindex.postings_per_query"] = ratio(float64(ip.source.postings), engines)
	}
	if ip.coord != nil {
		res.layer["shard.lookup_us"] = mean(lookup)
		res.layer["shard.execute_us"] = mean(execute)
		res.layer["shard.coord_self_us"] = mean(coordSelf)
		var wire wireCount
		for _, h := range ip.shards {
			for _, name := range []string{"shard.lookup", "shard.execute"} {
				if c := h.seen[name]; c != nil {
					wire.requests += c.requests
					wire.reqBytes += c.reqBytes
					wire.respBytes += c.respBytes
				}
			}
		}
		res.layer["shard.wire_req_bytes_per_query"] = ratio(float64(wire.reqBytes), engines)
		res.layer["shard.wire_resp_bytes_per_query"] = ratio(float64(wire.respBytes), engines)
		res.layer["shard.roundtrips_per_query"] = ratio(float64(wire.requests), engines*float64(w.shards))
	}
}

// directQserve replays the same requests straight into a fresh
// qserve.Server over the wrapped engine: a call that opened no engine
// span was a cache hit and all of it is qserve's time; otherwise qserve's
// own time is the call minus the engine span. The heap counters around
// the pass give the allocation cost of a pipeline run.
func directQserve(ctx context.Context, res *result, ip *inproc, tr *tracer, c *corpus, id func(int) int, n int) {
	qs := qserve.New(ip.engine, qserve.Options{Logf: func(string, ...any) {}})
	var hit, missSelf []float64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n && ctx.Err() == nil; i++ {
		q := c.uni.query(id(i))
		first := len(tr.spans)
		start := time.Now()
		_, _, err := qs.QueryScored(ctx, []string{q.a, q.b}, q.k, "")
		took := time.Since(start)
		if err != nil {
			continue
		}
		if len(tr.spans) == first {
			hit = append(hit, float64(took)/1e3)
		} else {
			missSelf = append(missSelf, float64(int64(took)-tr.spans[first].dur())/1e3)
		}
	}
	runtime.ReadMemStats(&m1)
	res.layer["qserve.hit_us"] = mean(hit)
	res.layer["qserve.miss_self_us"] = mean(missSelf)
	res.layer["pipeline.allocs_per_query"] = ratio(float64(m1.Mallocs-m0.Mallocs), float64(len(missSelf)))
	res.layer["pipeline.bytes_per_query"] = ratio(float64(m1.TotalAlloc-m0.TotalAlloc), float64(len(missSelf)))
	qserveSelf := (mean(hit)*float64(len(hit)) + mean(missSelf)*float64(len(missSelf))) / float64(n)
	res.layer["webdemo.self_us"] -= qserveSelf
}

// createTime times writing the RAM index as a paged .xki file.
func createTime(res *result, ip *inproc, dir string) {
	ix := kwindex.Build(ip.sys.Obj)
	start := time.Now()
	if diskindex.Create(filepath.Join(dir, "create.xki"), ix) == nil {
		res.layer["diskindex.create_s"] = time.Since(start).Seconds()
	}
}

// codecTimes times the coordinator's wire codec and merge on the
// payloads the first queries produce: each query's global containing
// lists, and the result streams its two covers return.
func codecTimes(ctx context.Context, res *result, ip *inproc, uni *universe, id func(int) int, n int) {
	sys := ip.sys // the coordinator's system holds the whole RAM index
	if n > payloadSample {
		n = payloadSample
	}
	var enc, dec, merge []float64
	for i := 0; i < n; i++ {
		q := uni.query(id(i))
		lists := map[string][]kwindex.Posting{}
		for _, kw := range []string{q.a, q.b} {
			lists[shard.NormKeyword(kw)] = sys.Index.ContainingList(kw)
		}
		t := time.Now()
		wire := shard.EncodeLists(lists)
		enc = append(enc, float64(time.Since(t))/1e3)
		t = time.Now()
		back, ok := shard.DecodeLists(wire)
		dec = append(dec, float64(time.Since(t))/1e3)
		if !ok {
			continue
		}
		src := shard.NewQuerySource(back, sys.Index.NumPostings(), sys.Index.NumKeywords())
		var streams [][]exec.Result
		for part := 0; part < numShards; part++ {
			rs, _, _, err := shard.ExecuteOwned(ctx, sys, src, &shard.ExecRequest{
				Keywords: []string{q.a, q.b}, K: q.k, Strategy: uint8(exec.NestedLoop), N: numShards, Parts: []int{part}})
			if err != nil {
				return
			}
			streams = append(streams, rs)
		}
		t = time.Now()
		shard.MergeTopK(streams, q.k)
		merge = append(merge, float64(time.Since(t))/1e3)
	}
	res.layer["shard.encode_us"] = mean(enc)
	res.layer["shard.decode_us"] = mean(dec)
	res.layer["shard.merge_us"] = mean(merge)
}

// applyTimes times Store.Apply alone on batches like the writer's, with
// the WAL fsync on as in the server, and reads the log's growth.
func applyTimes(res *result, ip *inproc, g *ingester, from int) {
	var took []float64
	wal0 := ip.store.Stats().WALBytes
	for b := from; b < from+payloadSample; b++ {
		batch, _ := g.batch(b)
		t := time.Now()
		if ip.store.Apply(batch) != nil {
			return
		}
		took = append(took, float64(time.Since(t))/1e3)
	}
	res.layer["segidx.apply_us"] = mean(took)
	res.layer["segidx.wal_bytes_per_doc"] = float64(ip.store.Stats().WALBytes-wal0) / float64(len(took)*batchDocs)
}
