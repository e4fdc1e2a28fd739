package obs

import (
	"sync"
	"testing"
	"time"
)

func TestDisabledTraceIsFreeAndSafe(t *testing.T) {
	var tr *Trace
	if tr.Enabled() {
		t.Fatal("nil trace reports enabled")
	}
	if got := tr.Spans(); got != nil {
		t.Fatalf("nil trace returned spans: %v", got)
	}
	if tr.Elapsed() != 0 {
		t.Fatal("nil trace elapsed != 0")
	}
	allocs := testing.AllocsPerRun(100, func() {
		tr.Add(Span{Stage: "execute", In: 4, Out: 7})
	})
	if allocs != 0 {
		t.Fatalf("disabled trace allocated %.1f per Add, want 0", allocs)
	}
}

// TestNilCounterAndHistogramAreSafe pins the documented contract: a
// nil sink is a valid no-op.
func TestNilCounterAndHistogramAreSafe(t *testing.T) {
	var c *Counter
	c.Add(3)
	if got := c.Load(); got != 0 {
		t.Fatalf("nil counter Load = %d, want 0", got)
	}
	var h *Histogram
	h.Observe(time.Millisecond)
	if got := h.Count(); got != 0 {
		t.Fatalf("nil histogram Count = %d, want 0", got)
	}
	if got := h.Sum(); got != 0 {
		t.Fatalf("nil histogram Sum = %v, want 0", got)
	}
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("nil histogram Quantile = %v, want 0", got)
	}
}

func TestTraceCollectsSpans(t *testing.T) {
	tr := NewTrace()
	tr.Add(Span{Stage: "discover", In: 2, Out: 3})
	tr.Add(Span{Stage: "generate", In: 2, Out: 5, CacheMisses: 1})
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Stage != "discover" || spans[1].Stage != "generate" {
		t.Fatalf("span order wrong: %v", spans)
	}
	if spans[1].CacheMisses != 1 {
		t.Fatal("cache miss not recorded")
	}
	// The returned slice is a copy: mutating it must not corrupt the trace.
	spans[0].Stage = "clobbered"
	if tr.Spans()[0].Stage != "discover" {
		t.Fatal("Spans returned the internal slice")
	}
	if tr.Elapsed() <= 0 {
		t.Fatal("elapsed not positive on enabled trace")
	}
}

func TestTraceConcurrentAdd(t *testing.T) {
	tr := NewTrace()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Add(Span{Stage: "execute"})
			}
		}()
	}
	wg.Wait()
	if got := len(tr.Spans()); got != 800 {
		t.Fatalf("got %d spans, want 800", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Observe(10 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(10 * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
	wantSum := 90*10*time.Microsecond + 10*10*time.Millisecond
	if h.Sum() != wantSum {
		t.Fatalf("sum = %v, want %v", h.Sum(), wantSum)
	}
	p50, p95 := h.Quantile(0.50), h.Quantile(0.95)
	if p50 > time.Millisecond {
		t.Fatalf("p50 = %v, want ≤1ms", p50)
	}
	if p95 < time.Millisecond {
		t.Fatalf("p95 = %v, want ≥1ms", p95)
	}
	if h.Quantile(1.0) < p95 {
		t.Fatal("p100 < p95")
	}
	var empty Histogram
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile != 0")
	}
	// Negative durations clamp to the first bucket instead of panicking.
	h.Observe(-time.Second)
	if h.Count() != 101 {
		t.Fatal("negative observation dropped")
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if c.Load() != 4000 {
		t.Fatalf("counter = %d, want 4000", c.Load())
	}
}
