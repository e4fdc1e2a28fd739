// Package webdemo serves the XKeyword demo of Figure 4 over HTTP: a
// query page, the ranked list-of-results presentation, and the
// interactive presentation graphs with expansion and contraction — the
// counterpart of the demo the paper hosted at db.ucsd.edu. The API is
// JSON; a small embedded HTML page drives it.
package webdemo

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/presentation"
	"repro/internal/qserve"
	"repro/internal/rank"
	"repro/internal/segidx"
	"repro/internal/shard"
)

// Server wraps a loaded system with HTTP handlers. Queries are served
// through the qserve layer (result cache, singleflight, admission
// control); presentation graphs are kept per session id so navigation
// is stateful, as in the demo.
type Server struct {
	sys *core.System
	qs  *qserve.Server

	// bufs pools /api/query scratch (see queryBuf).
	bufs sync.Pool

	// ingest is the optional live-ingestion store behind /api/ingest;
	// nil until EnableIngest (the endpoints then answer 404).
	ingest *segidx.Store

	mu       sync.Mutex
	sessions map[string]*pgSession
	nextID   int
}

// pgSession is one /api/pg/open result. Its graphs share one
// presentation session and its lookup cache, so mu serializes every
// request on the session, not only those on one graph.
type pgSession struct {
	mu     sync.Mutex
	graphs []*presentation.Graph // guarded by mu
}

// NewServer creates a demo server over a loaded system, with a serving
// layer using the default qserve options.
func NewServer(sys *core.System) *Server {
	return NewServerWith(sys, qserve.New(sys, qserve.Options{}))
}

// NewServerWith creates a demo server that serves queries through the
// given serving layer (cmd/xkserve configures one from flags).
func NewServerWith(sys *core.System, qs *qserve.Server) *Server {
	return &Server{sys: sys, qs: qs, sessions: make(map[string]*pgSession)}
}

// Handler returns the demo's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/api/query", s.handleQuery)
	mux.HandleFunc("/api/networks", s.handleNetworks)
	mux.HandleFunc("/api/pg/open", s.handlePGOpen)
	mux.HandleFunc("/api/pg/show", s.handlePGShow)
	mux.HandleFunc("/api/pg/expand", s.handlePGExpand)
	mux.HandleFunc("/api/pg/contract", s.handlePGContract)
	mux.HandleFunc("/api/object", s.handleObject)
	mux.HandleFunc("/api/pg/dot", s.handlePGDOT)
	mux.HandleFunc("/debug/qserve", s.handleQServeStats)
	mux.HandleFunc("/debug/pipeline", s.handlePipelineStats)
	mux.HandleFunc("/api/explain", s.handleExplain)
	mux.HandleFunc("/api/ingest", s.handleIngest)
	mux.HandleFunc("/debug/segidx", s.handleSegidxStats)
	mux.HandleFunc("/debug/shard", s.handleShardStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// handleHealthz reports the serving health state machine: 200 with
// "ok" or "degraded" (degraded answers are still correct — a load
// balancer should keep the instance but an operator should look), 503
// with Retry-After for "unavailable".
// When the engine is a scatter-gather coordinator the body also carries
// the per-shard states, and "unavailable" means the coordinator's own
// index failed or no shard group has a live replica — a dead shard
// keeps the endpoint 200 "degraded" (its plan classes are reassigned,
// so answers stay exact).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	state, detail := s.qs.Health()
	w.Header().Set("Content-Type", "application/json")
	if state == qserve.HealthUnavailable {
		setRetryAfter(w, s.qs.RetryAfter())
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	body := map[string]interface{}{"status": string(state), "detail": detail}
	if shards := s.qs.ShardStates(); shards != nil {
		body["shards"] = shards
	}
	_ = json.NewEncoder(w).Encode(body)
}

// setRetryAfter writes the Retry-After header in whole seconds (minimum
// 1 — the header has no finer granularity), so shed clients back off by
// the server's own pressure estimate instead of hammering.
func setRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
}

// handleQServeStats exposes the serving-layer counters (hits, misses,
// collapses, sheds, evictions, latency quantiles) as JSON for
// dashboards and the concurrency tests.
func (s *Server) handleQServeStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.qs.Stats())
}

// handlePipelineStats exposes the per-stage query-pipeline breakdown.
// cached (result-cache hits, no pipeline run) vs executed (pipeline
// runs) makes the serving layer's work reduction visible next to the
// per-stage costs of the queries that did execute.
func (s *Server) handlePipelineStats(w http.ResponseWriter, r *http.Request) {
	st := s.qs.Stats()
	writeJSON(w, map[string]interface{}{
		"cached":   st.Hits,
		"executed": st.Misses,
		"pipeline": s.sys.PipelineSnapshot(),
	})
}

// handleShardStats exposes the scatter-gather coordinator's snapshot:
// group/replica topology, per-replica health and breaker states, and
// the failover/hedge counters. 404 when the engine is not a
// coordinator — a single-node server has no shard state to report.
func (s *Server) handleShardStats(w http.ResponseWriter, r *http.Request) {
	coord, ok := s.qs.Engine().(*shard.Coordinator)
	if !ok {
		http.Error(w, "not serving a sharded index", http.StatusNotFound)
		return
	}
	writeJSON(w, coord.Stats())
}

// handleExplain runs EXPLAIN ANALYZE for a query — always through the
// engine, never the result cache, since the point is per-stage timings.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	keywords, k, ok := queryParams(w, r)
	if !ok {
		return
	}
	expl, err := s.sys.ExplainAnalyze(r.Context(), keywords, k)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, expl)
}

// handlePGDOT renders a presentation graph in Graphviz DOT for external
// visualization (the paper's demo drew these graphs; Figure 3/4c).
func (s *Server) handlePGDOT(w http.ResponseWriter, r *http.Request) {
	var dot string
	if !s.withGraph(w, r, func(g *presentation.Graph) error {
		dot = g.DOT(s.sys.SummaryOf)
		return nil
	}) {
		return
	}
	w.Header().Set("Content-Type", "text/vnd.graphviz")
	_, _ = w.Write([]byte(dot))
}

// handleObject returns a target object's BLOB — its full XML fragment
// (§4, load stage item 3), serialized on demand from the object graph —
// which the demo shows when the user clicks a node.
func (s *Server) handleObject(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.URL.Query().Get("id"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad id: %w", err))
		return
	}
	blob, err := s.sys.Obj.BlobXML(id)
	if err != nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("no target object %d", id))
		return
	}
	w.Header().Set("Content-Type", "application/xml")
	_, _ = w.Write(blob)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	keywords, k, ok := queryParams(w, r)
	if !ok {
		return
	}
	scorer := strings.TrimSpace(r.URL.Query().Get("scorer"))
	if !rank.Valid(scorer) {
		httpError(w, http.StatusBadRequest, fmt.Errorf("unknown scorer %q (want %s)", scorer, strings.Join(rank.Names(), ", ")))
		return
	}
	// Through the serving layer: cached, collapsed, admission-controlled,
	// and cancelled when the client disconnects (r.Context()). A relaxed
	// query arrives with the exact substitutions made, surfaced below,
	// never silent.
	results, rx, err := s.qs.QueryScored(r.Context(), keywords, k, scorer)
	if err != nil {
		switch {
		case errors.Is(err, qserve.ErrOverloaded), errors.Is(err, shard.ErrNoQuorum):
			setRetryAfter(w, s.qs.RetryAfter())
			httpError(w, http.StatusServiceUnavailable, err)
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			// The client is gone; nothing useful to write.
			httpError(w, http.StatusRequestTimeout, err)
		default:
			httpError(w, http.StatusBadRequest, err)
		}
		return
	}
	// Fail loudly, never silently wrong: a failed index backend with no
	// fallback answers every lookup with empty postings, so its "results"
	// must not leave the building as a 200.
	if state, detail := s.qs.Health(); state == qserve.HealthUnavailable {
		setRetryAfter(w, s.qs.RetryAfter())
		httpError(w, http.StatusServiceUnavailable, fmt.Errorf("index unavailable: %s", detail))
		return
	}
	buf := s.getQueryBuf()
	defer s.putQueryBuf(buf)
	// Loud, never silent: the body names the substitutions a relaxed
	// query made.
	if err := s.appendQueryBody(buf, results, scorer, rx); err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	// The whole body is known, so it goes out with a Content-Length
	// rather than chunked.
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(buf.body)))
	_, _ = w.Write(buf.body)
}

func (s *Server) handleNetworks(w http.ResponseWriter, r *http.Request) {
	keywords, _, ok := queryParams(w, r)
	if !ok {
		return
	}
	nets, err := s.sys.Networks(r.Context(), keywords)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	type netJSON struct {
		Index int    `json:"index"`
		Size  int    `json:"size"`
		Score int    `json:"score"`
		Shape string `json:"shape"`
	}
	out := make([]netJSON, 0, len(nets))
	for i, tn := range nets {
		out = append(out, netJSON{Index: i, Size: tn.Size(), Score: tn.Score(), Shape: tn.String()})
	}
	writeJSON(w, map[string]interface{}{"networks": out})
}

// handlePGOpen starts a presentation-graph session: one graph per
// candidate network that has results.
func (s *Server) handlePGOpen(w http.ResponseWriter, r *http.Request) {
	keywords, _, ok := queryParams(w, r)
	if !ok {
		return
	}
	nets, err := s.sys.Networks(r.Context(), keywords)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	var graphs []*presentation.Graph
	var descs []string
	psess := s.sys.PresentationSession(nil)
	for _, tn := range nets {
		g, err := psess.Build(tn)
		if err != nil {
			continue // networks without results are not shown
		}
		graphs = append(graphs, g)
		descs = append(descs, tn.String())
	}
	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("pg%d", s.nextID)
	s.sessions[id] = &pgSession{graphs: graphs}
	s.mu.Unlock()
	writeJSON(w, map[string]interface{}{"session": id, "graphs": len(graphs), "networks": descs})
}

// pgStateJSON renders one presentation graph's active subgraph.
type pgStateJSON struct {
	Network     string              `json:"network"`
	Occurrences []pgOccurrenceJSON  `json:"occurrences"`
	Edges       []map[string]string `json:"edges"`
}

type pgOccurrenceJSON struct {
	Index    int      `json:"index"`
	Segment  string   `json:"segment"`
	Expanded bool     `json:"expanded"`
	Nodes    []pgNode `json:"nodes"`
}

type pgNode struct {
	TO      int64  `json:"to"`
	Summary string `json:"summary"`
}

func (s *Server) handlePGShow(w http.ResponseWriter, r *http.Request) {
	var out map[string]interface{}
	if s.withGraph(w, r, func(g *presentation.Graph) error {
		out = s.renderPG(g)
		return nil
	}) {
		writeJSON(w, out)
	}
}

func (s *Server) handlePGExpand(w http.ResponseWriter, r *http.Request) {
	var out map[string]interface{}
	if s.withGraph(w, r, func(g *presentation.Graph) error {
		occ, err := strconv.Atoi(r.URL.Query().Get("occ"))
		if err != nil {
			return fmt.Errorf("bad occ: %w", err)
		}
		// The demo shows the first 10 expanded nodes (§3.1).
		added, err := g.Expand(occ, presentation.ExpandOptions{MaxNodes: 10})
		if err != nil {
			return err
		}
		out = s.renderPG(g)
		out["added"] = added
		return nil
	}) {
		writeJSON(w, out)
	}
}

func (s *Server) handlePGContract(w http.ResponseWriter, r *http.Request) {
	var out map[string]interface{}
	if s.withGraph(w, r, func(g *presentation.Graph) error {
		occ, err := strconv.Atoi(r.URL.Query().Get("occ"))
		if err != nil {
			return fmt.Errorf("bad occ: %w", err)
		}
		keep, err := strconv.ParseInt(r.URL.Query().Get("keep"), 10, 64)
		if err != nil {
			return fmt.Errorf("bad keep: %w", err)
		}
		if err := g.Contract(occ, keep); err != nil {
			return err
		}
		out = s.renderPG(g)
		return nil
	}) {
		writeJSON(w, out)
	}
}

func (s *Server) renderPG(g *presentation.Graph) map[string]interface{} {
	state := pgStateJSON{Network: g.Net.String()}
	for i, o := range g.Net.Occs {
		occ := pgOccurrenceJSON{Index: i, Segment: o.Segment, Expanded: g.Expanded[i]}
		for _, to := range g.Displayed(i) {
			occ.Nodes = append(occ.Nodes, pgNode{TO: to, Summary: s.sys.SummaryOf(to)})
		}
		state.Occurrences = append(state.Occurrences, occ)
	}
	for _, e := range g.Net.Edges {
		te := s.sys.TSS.Edge(e.EdgeID)
		state.Edges = append(state.Edges, map[string]string{
			"from":  strconv.Itoa(e.From),
			"to":    strconv.Itoa(e.To),
			"label": te.ForwardLabel,
		})
	}
	return map[string]interface{}{
		"network":     state.Network,
		"occurrences": state.Occurrences,
		"edges":       state.Edges,
	}
}

// withGraph resolves the request's pg session and graph and runs fn on
// the graph with the session's lock held, so fn must also render what
// the handler writes. It answers a bad session or graph index itself,
// and an error from fn as a 400; it reports whether fn succeeded.
func (s *Server) withGraph(w http.ResponseWriter, r *http.Request, fn func(g *presentation.Graph) error) bool {
	id := r.URL.Query().Get("session")
	s.mu.Lock()
	sess := s.sessions[id]
	s.mu.Unlock()
	if sess == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown session %q", id))
		return false
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	gi := 0
	if v := r.URL.Query().Get("graph"); v != "" {
		var err error
		if gi, err = strconv.Atoi(v); err != nil || gi < 0 || gi >= len(sess.graphs) {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad graph index %q", v))
			return false
		}
	}
	if len(sess.graphs) == 0 {
		httpError(w, http.StatusNotFound, fmt.Errorf("session has no graphs"))
		return false
	}
	if err := fn(sess.graphs[gi]); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

func queryParams(w http.ResponseWriter, r *http.Request) ([]string, int, bool) {
	q := strings.TrimSpace(r.URL.Query().Get("q"))
	if q == "" {
		httpError(w, http.StatusBadRequest, fmt.Errorf("missing q parameter"))
		return nil, 0, false
	}
	k := 10
	if v := r.URL.Query().Get("k"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad k %q", v))
			return nil, 0, false
		}
		k = n
	}
	return strings.Fields(q), k, true
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write([]byte(indexHTML))
}

const indexHTML = `<!DOCTYPE html>
<html><head><title>XKeyword demo</title>
<style>
 body { font-family: sans-serif; margin: 2em; max-width: 60em; }
 pre { background: #f4f4f4; padding: 1em; overflow-x: auto; }
 input { width: 24em; }
</style></head>
<body>
<h1>XKeyword — keyword proximity search on XML graphs</h1>
<p>Enter keywords (e.g. two author names). Results are trees of target
objects containing all keywords, ranked by size.</p>
<form onsubmit="run(); return false;">
 <input id="q" placeholder="keywords..."> <button>Search</button>
</form>
<pre id="out"></pre>
<script>
async function run() {
  const q = document.getElementById('q').value;
  const res = await fetch('/api/query?q=' + encodeURIComponent(q));
  const data = await res.json();
  let out = '';
  if (data.error) { out = 'error: ' + data.error; }
  else if (!data.results.length) { out = 'no results'; }
  else for (const [i, r] of data.results.entries()) {
    out += '#' + (i+1) + '  score ' + r.score + '\n' + r.rendered + '\n\n';
  }
  document.getElementById('out').textContent = out;
}
</script>
</body></html>`
