package pipeline

import (
	"time"

	"repro/internal/obs"
)

// Metrics accumulates per-stage counters and latency histograms across
// every query of a System. All fields are atomics — recording on the
// query path takes no locks — and a nil *Metrics is a valid no-op sink,
// mirroring the nil-Trace convention.
type Metrics struct {
	queries obs.Counter // completed Run calls
	byMode  [numModes]obs.Counter
	stages  [numStages]stageMetrics
}

// numModes is the number of pipeline modes (ModeNetworks..ModeAll).
const numModes = int(ModeAll) + 1

// stageMetrics is the cumulative account of one stage.
type stageMetrics struct {
	runs        obs.Counter
	errors      obs.Counter
	in          obs.Counter
	out         obs.Counter
	cacheHits   obs.Counter
	cacheMisses obs.Counter
	lat         obs.Histogram
}

// NewMetrics returns an empty sink.
func NewMetrics() *Metrics { return &Metrics{} }

// observe records one stage execution. Nil-safe.
func (m *Metrics) observe(stage int, d time.Duration, rep *StageReport, err error) {
	if m == nil || stage < 0 || stage >= numStages {
		return
	}
	sm := &m.stages[stage]
	sm.runs.Add(1)
	if err != nil {
		sm.errors.Add(1)
	}
	sm.in.Add(rep.In)
	sm.out.Add(rep.Out)
	sm.cacheHits.Add(rep.CacheHits)
	sm.cacheMisses.Add(rep.CacheMisses)
	sm.lat.Observe(d)
}

// finish records one completed pipeline run. Nil-safe.
func (m *Metrics) finish(mode Mode) {
	if m == nil {
		return
	}
	m.queries.Add(1)
	if i := int(mode); i >= 0 && i < numModes {
		m.byMode[i].Add(1)
	}
}

// StageSnapshot is the JSON-shaped cumulative view of one stage.
type StageSnapshot struct {
	Stage       string        `json:"stage"`
	Runs        int64         `json:"runs"`
	Errors      int64         `json:"errors"`
	In          int64         `json:"in"`
	Out         int64         `json:"out"`
	CacheHits   int64         `json:"cache_hits"`
	CacheMisses int64         `json:"cache_misses"`
	TotalNanos  int64         `json:"total_ns"`
	MeanMicros  int64         `json:"mean_us"`
	P50         time.Duration `json:"p50_ns"`
	P95         time.Duration `json:"p95_ns"`
}

// Snapshot is a point-in-time view of the pipeline counters, shaped for
// the /debug/pipeline endpoint.
type Snapshot struct {
	// Queries counts completed pipeline runs — queries that actually
	// executed, as opposed to being answered from a serving-layer cache.
	Queries int64 `json:"queries"`
	// ByMode breaks runs down by pipeline mode (networks, plans, topk,
	// all).
	ByMode map[string]int64 `json:"by_mode"`
	// Stages holds one cumulative entry per stage, pipeline order.
	Stages []StageSnapshot `json:"stages"`
}

// Snapshot captures the current counters. Safe to call concurrently
// with recording; stages observed mid-run read slightly torn but
// monotone values. Nil-safe: a nil Metrics yields a zero Snapshot.
func (m *Metrics) Snapshot() Snapshot {
	snap := Snapshot{ByMode: make(map[string]int64)}
	if m == nil {
		return snap
	}
	snap.Queries = m.queries.Load()
	for mode := ModeNetworks; mode <= ModeAll; mode++ {
		if n := m.byMode[int(mode)].Load(); n > 0 {
			snap.ByMode[mode.String()] = n
		}
	}
	for i := range m.stages {
		sm := &m.stages[i]
		ss := StageSnapshot{
			Stage:       StageNames[i],
			Runs:        sm.runs.Load(),
			Errors:      sm.errors.Load(),
			In:          sm.in.Load(),
			Out:         sm.out.Load(),
			CacheHits:   sm.cacheHits.Load(),
			CacheMisses: sm.cacheMisses.Load(),
			TotalNanos:  int64(sm.lat.Sum()),
			P50:         sm.lat.Quantile(0.50),
			P95:         sm.lat.Quantile(0.95),
		}
		if ss.Runs > 0 {
			ss.MeanMicros = ss.TotalNanos / ss.Runs / int64(time.Microsecond)
		}
		snap.Stages = append(snap.Stages, ss)
	}
	return snap
}
