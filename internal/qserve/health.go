package qserve

import (
	"fmt"
	"log"
	"sync/atomic"
	"time"

	"repro/internal/kwindex"
)

// Health is the serving layer's overall state, shaped for /healthz:
// the index backend's kwindex.Health, or degraded while the admission
// breaker sheds load.
type Health = kwindex.Health

const (
	HealthOK          = kwindex.HealthOK
	HealthDegraded    = kwindex.HealthDegraded
	HealthUnavailable = kwindex.HealthUnavailable
)

// healthSource is the optional engine interface behind Health and the
// index fields of Snapshot; *core.System implements it, and so does the
// scatter-gather coordinator (folding its own index with the per-shard
// states: unavailable when its index has failed or no shard group has a
// live replica).
type healthSource interface {
	IndexHealthState() (Health, error)
}

// ShardState is one shard's health as the coordinator sees it, shaped
// for /healthz and /debug/qserve.
type ShardState struct {
	ID    int    `json:"id"`
	Addr  string `json:"addr"`
	State string `json:"state"` // ok | degraded | unavailable
	// Detail explains a non-ok state (connection error, failover cause).
	Detail string `json:"detail,omitempty"`
	// P50Millis/P99Millis are the coordinator-observed request latency
	// quantiles for this shard.
	P50Millis int64 `json:"p50_ms"`
	P99Millis int64 `json:"p99_ms"`
	// Replicas is the per-replica breakdown, always present for
	// coordinator-served shards (a single-replica group reports one
	// entry — the only place its breaker state is visible). The group's
	// State/Addr above reflect its healthiest replica; this list shows
	// which sibling is sick and why. Empty only for non-coordinator
	// engines that never populate it.
	Replicas []ReplicaState `json:"replicas,omitempty"`
}

// ReplicaState is one replica's health within a shard group, shaped for
// /healthz: address, breaker state and the last error the coordinator
// recorded against it.
type ReplicaState struct {
	Replica int    `json:"replica"`
	Addr    string `json:"addr"`
	State   string `json:"state"` // ok | degraded | unavailable
	Detail  string `json:"detail,omitempty"`
	// Breaker is the replica's circuit-breaker state: closed | open | half-open.
	Breaker string `json:"breaker"`
	// LastErr is the most recent failure recorded against the replica, ""
	// after a success.
	LastErr   string `json:"last_err,omitempty"`
	P50Millis int64  `json:"p50_ms"`
	P99Millis int64  `json:"p99_ms"`
}

// shardStateSource is the optional engine interface a scatter-gather
// coordinator implements to expose per-shard health.
type shardStateSource interface {
	ShardStates() []ShardState
}

// ShardStates returns the engine's per-shard health when the engine is a
// scatter-gather coordinator, nil otherwise.
func (s *Server) ShardStates() []ShardState {
	if src, ok := s.eng.(shardStateSource); ok {
		return src.ShardStates()
	}
	return nil
}

// Health folds the index backend's state with serving-side admission
// pressure. The detail string explains any non-ok state.
func (s *Server) Health() (Health, string) {
	if hs, ok := s.eng.(healthSource); ok {
		state, err := hs.IndexHealthState()
		s.noteIndexErr(err)
		if state != HealthOK {
			return state, fmt.Sprintf("index backend: %v", err)
		}
	}
	if s.breakerOpen() {
		return HealthDegraded, fmt.Sprintf("admission breaker open; shedding load for %v", s.breakerRemaining().Round(time.Millisecond))
	}
	return HealthOK, ""
}

// noteIndexErr logs the index backend's first recorded failure exactly
// once, so a soft-failing reader (whose lookups return empty results
// rather than errors) cannot fail without a trace in the serving log.
func (s *Server) noteIndexErr(err error) {
	if err == nil || s.indexErrLogged.Load() {
		return
	}
	if s.indexErrLogged.CompareAndSwap(false, true) {
		s.logf("qserve: index backend reported failure: %v", err)
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// breakerOpen reports whether admissions are currently fast-failing.
func (s *Server) breakerOpen() bool {
	return s.breakerRemaining() > 0
}

func (s *Server) breakerRemaining() time.Duration {
	until := s.breakerUntil.Load()
	if until == 0 {
		return 0
	}
	rem := time.Duration(until - time.Now().UnixNano())
	if rem < 0 {
		return 0
	}
	return rem
}

// tripBreaker opens (or re-opens) the fast-fail window after a shed.
// Consecutive trips grow the window exponentially up to BreakerMax, so
// a persistently saturated server converges to cheap rejections instead
// of making every client pay the full queue wait before its 503.
func (s *Server) tripBreaker() {
	win := s.breakerWin.Load()
	if win == 0 {
		win = int64(s.opts.BreakerWindow)
	} else {
		win *= 2
		if max := int64(s.opts.BreakerMax); win > max {
			win = max
		}
	}
	s.breakerWin.Store(win)
	s.breakerUntil.Store(time.Now().UnixNano() + win)
	s.stats.breakerTrips.Add(1)
}

// closeBreaker resets the fast-fail state after a successful admission:
// a free slot is proof the overload has passed.
func (s *Server) closeBreaker() {
	if s.breakerUntil.Load() != 0 {
		s.breakerUntil.Store(0)
		s.breakerWin.Store(0)
	}
}

// RetryAfter estimates how long a just-shed client should wait before
// retrying: at least the remaining breaker window, scaled up by queue
// pressure (waiters per execution slot), so the hint backs off as the
// overload deepens rather than inviting a synchronized retry storm.
func (s *Server) RetryAfter() time.Duration {
	d := s.opts.QueueWait
	if rem := s.breakerRemaining(); rem > d {
		d = rem
	}
	if w := s.waiters.Load(); w > 0 {
		d += time.Duration(w) * s.opts.QueueWait / time.Duration(s.opts.MaxConcurrent)
	}
	return d
}

// breakerState bundles the admission-breaker atomics (on Server).
type breakerState struct {
	breakerUntil   atomic.Int64 // unix nanos; 0 or past = closed
	breakerWin     atomic.Int64 // current window length, nanos
	waiters        atomic.Int64 // admissions blocked in the queue wait
	indexErrLogged atomic.Bool
}
