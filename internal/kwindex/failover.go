package kwindex

import (
	"fmt"
	"sync"
)

// Health classifies an index source's state for the serving layer's
// health endpoint: the module's one health verdict (core.IndexHealth
// and qserve.Health are aliases of it).
type Health string

const (
	// HealthOK: the source is serving normally.
	HealthOK Health = "ok"
	// HealthDegraded: answers are correct, but from a rebuilt fallback
	// (or, at the serving layer, while load is shed).
	HealthDegraded Health = "degraded"
	// HealthUnavailable: the source failed with no fallback; its empty
	// lookups must not be trusted.
	HealthUnavailable Health = "unavailable"
)

// Worse reports whether h is a worse state than o. Any state other
// than ok and degraded counts as unavailable.
func (h Health) Worse(o Health) bool { return h.rank() > o.rank() }

func (h Health) rank() int {
	switch h {
	case HealthOK:
		return 0
	case HealthDegraded:
		return 1
	}
	return 2
}

// HealthOf reports a source's health and the error behind a non-ok
// state. A source with a Health method reports its own state; a source
// with only Err (a bare disk reader) is unavailable once Err is set,
// because its lookups then return silently empty results; any other
// source, nil included, is ok.
func HealthOf(src Source) (Health, error) {
	switch s := src.(type) {
	case interface{ Health() (Health, error) }:
		return s.Health()
	case interface{ Err() error }:
		if err := s.Err(); err != nil {
			return HealthUnavailable, err
		}
	}
	return HealthOK, nil
}

// FallibleSource is a Source whose lookups can fail softly: lookup
// methods return empty results and the first underlying failure is
// reported by Err. *diskindex.Reader is the canonical implementation.
type FallibleSource interface {
	Source
	Err() error
}

// Failover serves lookups from a fallible primary (the disk-backed
// reader) until the primary reports a failure, then degrades: it invokes
// the rebuild callback once to construct a replacement source (an
// in-memory index rebuilt from the snapshot) and serves every subsequent
// lookup — including a retry of the one that exposed the failure — from
// it. The failed lookup is retried rather than returned, upholding the
// robustness invariant: fail loudly or answer correctly, never return
// silently empty results for a query the fallback can answer.
//
// If rebuilding fails too, the Failover keeps returning the primary's
// empty results and Health reports unavailable instead of letting wrong
// answers flow.
type Failover struct {
	primary FallibleSource

	// rebuild constructs the fallback source on first primary failure.
	rebuild func() (Source, error)
	// onDegrade, if set, is notified exactly once with the primary error
	// that triggered degradation (logging, metrics).
	onDegrade func(error)

	mu         sync.Mutex
	cause      error  // guarded by mu; the failure that degraded f, nil while healthy
	fallback   Source // guarded by mu; nil until rebuilt
	rebuildErr error  // guarded by mu
}

// NewFailover wraps primary with lazy degraded-mode failover. rebuild
// may be nil, in which case degradation only marks the index unhealthy
// without self-healing. onDegrade may be nil.
func NewFailover(primary FallibleSource, rebuild func() (Source, error), onDegrade func(error)) *Failover {
	return &Failover{primary: primary, rebuild: rebuild, onDegrade: onDegrade}
}

// NewDegradedFailover returns a Failover whose primary failed before it
// could serve (a disk index that would not open): it degrades on cause
// at once, through the same path as a failed lookup — onDegrade fires
// and rebuild runs before it returns. Its primary is an empty source
// whose Err is cause.
func NewDegradedFailover(cause error, rebuild func() (Source, error), onDegrade func(error)) *Failover {
	f := NewFailover(failedSource{FromPostings(nil), cause}, rebuild, onDegrade)
	f.checkpoint()
	return f
}

// failedSource is the primary of a Failover that started degraded.
type failedSource struct {
	*Index
	err error
}

func (s failedSource) Err() error { return s.err }

// degradeLocked moves f onto its fallback on the first failure; later
// calls are no-ops. Callers hold f.mu.
func (f *Failover) degradeLocked(cause error) {
	if f.cause != nil {
		return
	}
	f.cause = cause
	if f.onDegrade != nil {
		f.onDegrade(cause)
	}
	if f.rebuild != nil {
		if fb, err := f.rebuild(); err != nil {
			f.rebuildErr = err
		} else {
			f.fallback = fb
		}
	}
}

// acquire returns the source to serve the next lookup from, and whether
// it is the (still-trusted) primary.
func (f *Failover) acquire() (Source, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fallback != nil {
		return f.fallback, false
	}
	return f.primary, true
}

// checkpoint inspects the primary after a lookup served from it. On a
// failure it degrades (once) and reports whether a fallback is available
// so the caller can retry the lookup.
func (f *Failover) checkpoint() bool {
	err := f.primary.Err()
	if err == nil {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.degradeLocked(err)
	return f.fallback != nil
}

// lookup serves one lookup from the current source; when the primary
// served it and turns out to have failed, it is retried on the fallback.
func lookup[T any](f *Failover, get func(Source) T) T {
	src, primary := f.acquire()
	v := get(src)
	if primary && f.checkpoint() {
		src, _ = f.acquire()
		v = get(src)
	}
	return v
}

// ContainingList implements Source.
func (f *Failover) ContainingList(k string) []Posting {
	return lookup(f, func(s Source) []Posting { return s.ContainingList(k) })
}

// SchemaNodes implements Source.
func (f *Failover) SchemaNodes(k string) []string {
	return lookup(f, func(s Source) []string { return s.SchemaNodes(k) })
}

// TOSet implements Source.
func (f *Failover) TOSet(k, schemaNode string) map[int64]bool {
	return lookup(f, func(s Source) map[int64]bool { return s.TOSet(k, schemaNode) })
}

// NumPostings implements Source. Counts come from the header or the
// rebuilt index and cannot fail mid-lookup, so no checkpoint is needed.
func (f *Failover) NumPostings() int {
	src, _ := f.acquire()
	return src.NumPostings()
}

// NumKeywords implements Source.
func (f *Failover) NumKeywords() int {
	src, _ := f.acquire()
	return src.NumKeywords()
}

// Primary returns the wrapped primary source (for stats and forensics —
// it keeps reporting its first error after degradation).
func (f *Failover) Primary() FallibleSource { return f.primary }

// Health reports the Failover's state: ok while the primary serves,
// degraded once a rebuilt fallback serves in its place, and unavailable
// when the primary failed with no fallback to take over. A primary
// that has recorded a failure since its last lookup degrades f here, as
// its next lookup would.
func (f *Failover) Health() (Health, error) {
	f.checkpoint()
	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case f.cause == nil:
		return HealthOK, nil
	case f.fallback != nil:
		return HealthDegraded, f.cause
	case f.rebuildErr != nil:
		return HealthUnavailable, fmt.Errorf("primary failed (%w); rebuild failed: %w", f.cause, f.rebuildErr)
	}
	return HealthUnavailable, f.cause
}

var _ Source = (*Failover)(nil)
