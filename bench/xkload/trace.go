package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/kwindex"
	"repro/internal/pipeline"
	"repro/internal/rank"
	"repro/internal/shard"
)

// span is one timed call across a layer boundary. Times are nanoseconds
// since the tracer was created; Parent is the ID of the span that caused
// this one (0 for a request's root) and Req numbers the request.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer collects spans in memory. The replay issues one request at a
// time, so the span that a new one belongs under is simply the innermost
// open span of the replaying goroutine (cur); calls that the program
// makes on other goroutines (executor workers reading the posting source,
// shard handlers serving the coordinator) attach to it with child and do
// not move cur.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	cur   int32
	req   int32
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) open(name string, nest bool) int32 {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	if nest && t.cur == 0 {
		t.req++
	}
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: t.cur, Req: t.req, Name: name, Start: now})
	if nest {
		t.cur = id
	}
	t.mu.Unlock()
	return id
}

// begin opens a span on the request's own call chain — a new request
// when none is open; end closes it.
func (t *tracer) begin(name string) int32 { return t.open(name, true) }

func (t *tracer) end(id int32) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.cur = t.spans[id-1].Parent
	t.mu.Unlock()
}

// child opens a span under the current one from any goroutine.
func (t *tracer) child(name string) int32 { return t.open(name, false) }

func (t *tracer) endChild(id int32) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// covered is the length of the union of the children's intervals.
func covered(children []span) int64 {
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	var total, end int64
	for _, c := range children {
		if c.End <= end {
			continue
		}
		if c.Start > end {
			end = c.Start
		}
		total += c.End - end
		end = c.End
	}
	return total
}

// childrenOf indexes the spans by their parent's ID.
func childrenOf(spans []span) map[int32][]span {
	kids := map[int32][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	return kids
}

// selfTimes returns, per span ID, the span's duration minus the part of
// it that its children cover.
func selfTimes(spans []span) map[int32]int64 {
	kids := childrenOf(spans)
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(kids[s.ID])
	}
	return self
}

// blockingSum adds the self times along a request's blocking path: where
// children ran in parallel (two shards serving one phase), only the chain
// that ends last held the request up. For a correctly nested trace it
// comes to the root's duration, less the slivers of parallel children
// that the chain does not cover.
func blockingSum(root span, kids map[int32][]span, self map[int32]int64) int64 {
	total := self[root.ID]
	cs := append([]span(nil), kids[root.ID]...)
	sort.Slice(cs, func(i, j int) bool { return cs[i].End > cs[j].End })
	limit := root.End + 1
	for _, c := range cs {
		if c.End <= limit {
			total += blockingSum(c, kids, self)
			limit = c.Start
		}
	}
	return total
}

// writeTrace stores the spans with their self times for reading later.
func writeTrace(path string, spans []span) error {
	self := selfTimes(spans)
	type row struct {
		span
		Self int64 `json:"self_ns"`
	}
	rows := make([]row, len(spans))
	for i, s := range spans {
		rows[i] = row{s, self[s.ID]}
	}
	raw, err := json.Marshal(map[string]any{"spans": rows})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// tracedHandler records one span per request around an http.Handler: the
// request's root when it fronts the web handler, a child when it fronts a
// shard server that the coordinator calls. It also counts the bytes that
// cross the boundary.
type tracedHandler struct {
	next http.Handler
	tr   *tracer
	name func(*http.Request) string
	root bool
	mu   sync.Mutex
	seen map[string]*wireCount // by span name
}

type wireCount struct{ requests, reqBytes, respBytes int64 }

type countingResponse struct {
	http.ResponseWriter
	n int64
}

func (c *countingResponse) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return c.ResponseWriter.Write(p)
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	cw := &countingResponse{ResponseWriter: w}
	name := h.name(r)
	if h.root {
		id := h.tr.begin(name)
		h.next.ServeHTTP(cw, r)
		h.tr.end(id)
	} else {
		id := h.tr.child(name)
		h.next.ServeHTTP(cw, r)
		h.tr.endChild(id)
	}
	h.mu.Lock()
	c := h.seen[name]
	if c == nil {
		c = &wireCount{}
		h.seen[name] = c
	}
	c.requests++
	c.reqBytes += r.ContentLength
	c.respBytes += cw.n
	h.mu.Unlock()
}

// shardSpanName names the two query phases; the coordinator's health
// probes are recorded too but kept apart.
func shardSpanName(r *http.Request) string {
	return "shard." + strings.TrimPrefix(r.URL.Path, "/shard/")
}

// tracedSource times every read of the posting source, whichever backend
// sits behind it, and counts what the reads return: postings, schema
// nodes or target objects.
type tracedSource struct {
	kwindex.Source
	tr       *tracer
	mu       sync.Mutex
	calls    int64
	postings int64
}

func (s *tracedSource) note(n int) {
	s.mu.Lock()
	s.calls++
	s.postings += int64(n)
	s.mu.Unlock()
}

func (s *tracedSource) ContainingList(k string) []kwindex.Posting {
	id := s.tr.child("kwindex.source")
	ps := s.Source.ContainingList(k)
	s.tr.endChild(id)
	s.note(len(ps))
	return ps
}

func (s *tracedSource) SchemaNodes(k string) []string {
	id := s.tr.child("kwindex.source")
	ns := s.Source.SchemaNodes(k)
	s.tr.endChild(id)
	s.note(len(ns))
	return ns
}

func (s *tracedSource) TOSet(k, schemaNode string) map[int64]bool {
	id := s.tr.child("kwindex.source")
	set := s.Source.TOSet(k, schemaNode)
	s.tr.endChild(id)
	s.note(len(set))
	return set
}

// tracedStage times one pipeline stage. The posting-source reads made
// during the stage are its children, so its self time excludes them.
type tracedStage struct {
	pipeline.Stage
	tr *tracer
}

func (s tracedStage) Run(ctx context.Context, q *pipeline.Query, rep *pipeline.StageReport) error {
	id := s.tr.begin("pipeline." + s.Name())
	err := s.Stage.Run(ctx, q, rep)
	s.tr.end(id)
	return err
}

// tracedSystem is the qserve.Engine of a single node with spans: it runs
// the query exactly as core.System.QueryScoredContext does, but through a
// pipeline whose stages and posting source are wrapped.
type tracedSystem struct {
	*core.System
	src     *tracedSource
	tr      *tracer
	results *atomic.Int64
}

func (e *tracedSystem) QueryScoredContext(ctx context.Context, keywords []string, k int, scorer string) ([]exec.Result, *pipeline.Relaxation, error) {
	if scorer == "" {
		scorer = e.Opts.Scorer
	}
	sc, err := rank.New(scorer)
	if err != nil {
		return nil, nil, err
	}
	id := e.tr.begin("engine")
	defer e.tr.end(id)
	p := e.PipelineWith(e.src)
	for _, st := range []*pipeline.Stage{&p.Discover, &p.Generate, &p.Reduce, &p.Optimize, &p.Execute, &p.Rank} {
		*st = tracedStage{*st, e.tr}
	}
	q := &pipeline.Query{Keywords: keywords, Mode: pipeline.ModeTopK, K: k, Strategy: exec.NestedLoop, Scorer: sc}
	if err := p.Run(ctx, q); err != nil {
		return nil, nil, err
	}
	e.results.Add(int64(len(q.Results)))
	return q.Results, q.Relaxation, nil
}

// tracedCoordinator is the coordinator with one span around each query;
// the shard handlers' spans fall under it.
type tracedCoordinator struct {
	*shard.Coordinator
	tr      *tracer
	results *atomic.Int64
}

func (e *tracedCoordinator) QueryScoredContext(ctx context.Context, keywords []string, k int, scorer string) ([]exec.Result, *pipeline.Relaxation, error) {
	id := e.tr.begin("shard.coord")
	defer e.tr.end(id)
	rs, rx, err := e.Coordinator.QueryScoredContext(ctx, keywords, k, scorer)
	e.results.Add(int64(len(rs)))
	return rs, rx, err
}
