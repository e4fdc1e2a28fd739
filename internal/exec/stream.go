package exec

import (
	"context"
	"sort"
	"sync"
)

// Stream is the web-search-engine-like presentation of §3.1: a producer
// evaluates the candidate networks smallest-first and fills a queue with
// MTTONs, which the caller consumes page by page. Because smaller
// networks are evaluated first, early pages hold the higher-ranked
// (smaller) results, exactly as the paper describes.
type Stream struct {
	results chan Result
	stop    chan struct{}
	once    sync.Once
}

// StreamPlans starts evaluating the plans (sorted by ascending score, as
// the CN generator emits them) into a result queue. Close the stream
// when done to release the producer.
func StreamPlans(ex *Executor, plans []Planned, strategy Strategy) *Stream {
	return StreamPlansContext(context.Background(), ex, plans, strategy)
}

// StreamPlansContext is StreamPlans tied to a context: cancelling ctx
// stops the producer mid-join (a disconnected client stops burning CPU)
// and ends the stream. The stream must still be Closed by the caller;
// Close is idempotent with the context-driven shutdown.
func StreamPlansContext(ctx context.Context, ex *Executor, plans []Planned, strategy Strategy) *Stream {
	s := &Stream{
		// Lets the producer run a page ahead of the consumer.
		results: make(chan Result, 64),
		stop:    make(chan struct{}),
	}
	go func() {
		defer close(s.results)
		for _, p := range plans {
			open := true
			_ = ex.RunContext(ctx, p.Plan, strategy, func(r Result) bool {
				select {
				case s.results <- r:
				case <-s.stop:
					open = false
				case <-ctx.Done():
					open = false
				}
				return open
			})
			if !open || ctx.Err() != nil {
				return
			}
		}
	}()
	return s
}

// Next returns up to n further results (sorted by score within the
// page). It returns a short or empty page when the stream is exhausted.
func (s *Stream) Next(n int) []Result {
	var page []Result
	for len(page) < n {
		r, ok := <-s.results
		if !ok {
			break
		}
		page = append(page, r)
	}
	sort.SliceStable(page, func(i, j int) bool { return page[i].Score < page[j].Score })
	return page
}

// Close stops the producer; pending results are discarded. Safe to call
// multiple times and after exhaustion.
func (s *Stream) Close() {
	s.once.Do(func() {
		close(s.stop)
		// Drain so a producer blocked on send can observe stop.
		go func() {
			for range s.results {
			}
		}()
	})
}
