package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/kwindex"
	"repro/internal/pipeline"
	"repro/internal/qserve"
)

// Server is the shard-side of the wire protocol: the replicated
// structural data behind /shard/execute, plus one partition's identity
// and health behind /shard/stats. A shard replica deliberately does NOT
// serve the ordinary query API: it executes only the plan classes a
// coordinator assigns it over the postings the request carries —
// shard replicas answer only protocol requests (and /healthz).
type Server struct {
	// Sys holds the replicated structural data (schema, TSS, connection
	// store, decomposition); its own Index field is not consulted.
	Sys *core.System
	// Local is the shard's partition source — typically a
	// kwindex.Failover over the partition's diskindex reader with a
	// rebuild-from-memory fallback. It is never read for answers (execute
	// requests carry their postings); it supplies the posting totals and
	// the health /shard/stats and /healthz report, which Validate
	// cross-checks across replicas.
	Local kwindex.Source
	// ID and N identify the partition; CRC is the manifest-recorded
	// partition file checksum, echoed in stats so a coordinator can spot
	// a shard serving the wrong split.
	ID, N int
	CRC   uint32
	// Cache, when non-nil, memoizes /shard/execute responses by request
	// identity (see execCacheKey), so a coordinator retrying a query —
	// or several coordinators asking the same hot question — does not
	// re-run the join pipeline per request. nil disables caching.
	Cache *qserve.ResultCache

	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
}

// Handler returns the shard's HTTP mux: the two protocol endpoints
// plus /healthz (shaped like webdemo's: 503 only when the partition
// index is unavailable).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/shard/execute", s.handleExecute)
	mux.HandleFunc("/shard/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/debug/shardcache", s.handleCacheStats)
	return mux
}

func (s *Server) health() (state string, detail string) {
	h, err := core.SourceHealth(s.Local)
	if err != nil {
		return string(h), err.Error()
	}
	return string(h), ""
}

func (s *Server) handleExecute(w http.ResponseWriter, r *http.Request) {
	var req ExecRequest
	if !readJSON(w, r, &req) {
		return
	}
	var key string
	if s.Cache != nil {
		key = execCacheKey(&req)
		if rs, meta, ok := s.Cache.Get(key); ok {
			if m, ok := meta.(execMeta); ok {
				s.cacheHits.Add(1)
				wire := make([]WireResult, len(rs))
				for i, res := range rs {
					wire[i] = WireResult{Ord: res.Ord, Score: res.Score, Bind: res.Bind}
				}
				writeJSON(w, http.StatusOK, ExecResponse{Shard: s.ID, Of: s.N, Results: wire, NetsCRC: m.NetsCRC, Plans: m.Plans})
				return
			}
		}
		s.cacheMisses.Add(1)
	}
	lists, ok := DecodeLists(req.Lists)
	if !ok {
		writeError(w, http.StatusBadRequest, "malformed posting lists")
		return
	}
	src := NewQuerySource(lists, req.GlobalPostings, req.GlobalKeywords)
	results, netsCRC, plans, err := ExecuteOwned(r.Context(), s.Sys, src, &req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	wire := make([]WireResult, len(results))
	for i, res := range results {
		wire[i] = WireResult{Ord: res.Ord, Score: res.Score, Bind: res.Bind}
	}
	if s.Cache != nil {
		// Cache the Net-free form: Bind/Score/Ord is all the wire
		// response carries; the coordinator re-attaches networks from its
		// own derivation.
		cached := make([]exec.Result, len(results))
		for i, res := range results {
			cached[i] = exec.Result{Bind: res.Bind, Score: res.Score, Ord: res.Ord}
		}
		s.Cache.Put(key, cached, execMeta{NetsCRC: netsCRC, Plans: plans})
	}
	writeJSON(w, http.StatusOK, ExecResponse{Shard: s.ID, Of: s.N, Results: wire, NetsCRC: netsCRC, Plans: plans})
}

// handleCacheStats is the /debug/shardcache endpoint: hit/miss counters
// and the cache's current footprint (all zero when caching is off).
func (s *Server) handleCacheStats(w http.ResponseWriter, r *http.Request) {
	stats := struct {
		Enabled bool  `json:"enabled"`
		Hits    int64 `json:"hits"`
		Misses  int64 `json:"misses"`
		Entries int   `json:"entries"`
		Bytes   int64 `json:"bytes"`
	}{
		Enabled: s.Cache != nil,
		Hits:    s.cacheHits.Load(),
		Misses:  s.cacheMisses.Load(),
	}
	if s.Cache != nil {
		stats.Entries, stats.Bytes = s.Cache.Usage()
	}
	writeJSON(w, http.StatusOK, stats)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	state, detail := s.health()
	writeJSON(w, http.StatusOK, StatsResponse{
		Shard:      s.ID,
		Of:         s.N,
		Scheme:     HashScheme,
		CRC:        s.CRC,
		IndexState: state,
		IndexErr:   detail,
		Postings:   s.Local.NumPostings(),
		Keywords:   s.Local.NumKeywords(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	state, detail := s.health()
	code := http.StatusOK
	if state == string(core.IndexUnavailable) {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]string{"status": state, "detail": detail})
}

// ExecuteOwned derives the query's plan list from the request-carried
// global postings and evaluates the plans of the request's cover — the
// plans whose index is ≡ one of req.Parts (mod req.N) — with
// exec.RunPlans, capped at req.K as a single node caps its plans. It
// returns their results in canonical (ascending Ord) order, the network
// checksum, and the derived plan count. Only the cover's plans are
// planned (seed choice, filters) and executed; every other plan of the
// query belongs to another shard's cover.
func ExecuteOwned(ctx context.Context, sys *core.System, src *QuerySource, req *ExecRequest) ([]exec.Result, uint32, int, error) {
	if req.N <= 0 {
		return nil, 0, 0, fmt.Errorf("shard: execute with n=%d", req.N)
	}
	own := make([]bool, req.N)
	for _, p := range req.Parts {
		if p < 0 || p >= req.N {
			return nil, 0, 0, fmt.Errorf("shard: execute cover names class %d of %d", p, req.N)
		}
		own[p] = true
	}
	q := &pipeline.Query{
		Keywords: req.Keywords,
		Mode:     pipeline.ModePlans,
		Strategy: exec.Strategy(req.Strategy),
		Own:      func(plan int) bool { return own[plan%req.N] },
	}
	if err := sys.PipelineWith(src).Run(ctx, q); err != nil {
		return nil, 0, 0, err
	}
	out, err := exec.RunPlans(ctx, sys.Executor(), q.Plans, req.K, q.Strategy)
	if err != nil {
		return nil, 0, 0, err
	}
	return out, q.NetsCRC(), len(q.Plans), nil
}

// readJSON decodes a POST body, answering 400/405 itself on failure.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return false
	}
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("decoding request: %v", err))
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v) //xk:ignore errdrop response write failure means the client left
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorResponse{Error: msg})
}
