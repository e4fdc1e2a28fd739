package obs

import (
	"sync"
	"time"
)

// Span is one completed pipeline stage of a query: its wall-clock
// duration plus the cardinality and cache behaviour the stage reported.
// Spans are plain values — the caller builds one on the stack and hands
// it to Trace.Add, so a disabled trace records nothing and allocates
// nothing.
type Span struct {
	// Stage is the stage name ("discover", "generate", ...).
	Stage string `json:"stage"`
	// Start is when the stage began.
	Start time.Time `json:"-"`
	// Duration is the stage's wall-clock time in nanoseconds.
	Duration time.Duration `json:"duration_ns"`
	// In and Out are the stage's input and output cardinality (keywords
	// in, candidate networks out, plans in, results out, ...).
	In  int64 `json:"in"`
	Out int64 `json:"out"`
	// CacheHits and CacheMisses count the stage's cache traffic: the CN
	// memo of the generate stage.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// Cached marks a stage whose whole output came from a cache.
	Cached bool `json:"cached,omitempty"`
	// Note carries a short stage-specific annotation (e.g. the execution
	// mode), for the EXPLAIN ANALYZE rendering.
	Note string `json:"note,omitempty"`
}

// Trace collects the spans of one query. The zero value is not used
// directly: call NewTrace for an enabled trace, or keep a nil *Trace for
// a disabled one — every method is nil-safe and a disabled trace costs
// no allocations and no synchronization on the query path.
type Trace struct {
	mu    sync.Mutex
	began time.Time
	spans []Span
}

// NewTrace starts an enabled trace.
func NewTrace() *Trace {
	return &Trace{began: time.Now()}
}

// Enabled reports whether spans are being collected.
func (t *Trace) Enabled() bool { return t != nil }

// Add appends a completed span. No-op on a disabled (nil) trace.
func (t *Trace) Add(sp Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// Spans returns a copy of the collected spans in completion order.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Elapsed is the wall-clock time since the trace started.
func (t *Trace) Elapsed() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.began)
}
