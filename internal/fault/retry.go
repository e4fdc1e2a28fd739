package fault

import (
	"sync/atomic"
	"time"
)

// RetryPolicy is the repo's blessed retry shape: a bounded number of
// attempts with exponential backoff and jitter between them. Unbounded
// or backoff-free retry loops turn one transient fault into a stall or
// a thundering herd — the xkvet retryloop analyzer flags hand-rolled
// loops that drop either half. The zero RetryPolicy is DefaultRetry.
type RetryPolicy struct {
	// Attempts is the total number of tries, including the first
	// (3 in the zero policy; otherwise values below 1 mean one try,
	// i.e. no retry).
	Attempts int
	// Base is the delay before the first retry (default 500µs); each
	// subsequent retry doubles it.
	Base time.Duration
	// Max caps a single backoff delay (default 50ms).
	Max time.Duration
	// Jitter is the fraction of each delay that is randomized, 0..1
	// (default 0.5). Jitter keeps retries of concurrent readers from
	// hammering a recovering device in lockstep.
	Jitter float64
}

// DefaultRetry is the read path's default policy: three attempts spread
// over roughly a millisecond — enough to absorb a transient I/O hiccup,
// bounded enough that a dead disk fails a lookup in single-digit
// milliseconds instead of hanging it.
var DefaultRetry = RetryPolicy{Attempts: 3, Base: 500 * time.Microsecond, Max: 50 * time.Millisecond, Jitter: 0.5}

func (p RetryPolicy) defaults() RetryPolicy {
	if p == (RetryPolicy{}) {
		return DefaultRetry
	}
	if p.Attempts < 1 {
		p.Attempts = 1
	}
	if p.Base <= 0 {
		p.Base = 500 * time.Microsecond
	}
	if p.Max <= 0 {
		p.Max = 50 * time.Millisecond
	}
	if p.Jitter < 0 || p.Jitter > 1 {
		p.Jitter = 0.5
	}
	return p
}

// jitterSeq decorrelates the jitter of concurrent retriers without any
// shared lock; determinism is not needed here (the *injection* side is
// the deterministic one), only cheap spread.
var jitterSeq atomic.Uint64

// Do runs fn up to p.Attempts times, sleeping an exponentially growing,
// jittered delay between attempts, and returns the last error (nil on
// the first success). Retrying is only worth it for transient faults;
// callers that can classify errors should stop early by returning nil
// from fn and stashing the permanent error elsewhere — or simply accept
// a few wasted attempts, which the bound keeps cheap.
func (p RetryPolicy) Do(fn func() error) error {
	p = p.defaults()
	var err error
	for attempt := 0; attempt < p.Attempts; attempt++ {
		if err = fn(); err == nil {
			return nil
		}
		if attempt == p.Attempts-1 {
			break
		}
		delay := p.Base << uint(attempt)
		if delay > p.Max {
			delay = p.Max
		}
		if p.Jitter > 0 {
			r := rng{state: jitterSeq.Add(0x9e3779b97f4a7c15)}
			spread := float64(delay) * p.Jitter
			delay = time.Duration(float64(delay) - spread/2 + r.float()*spread)
		}
		time.Sleep(delay)
	}
	return err
}
