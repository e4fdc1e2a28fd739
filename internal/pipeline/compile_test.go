package pipeline

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cn"
)

// TestSubstitutionFailsLoudly is the regression test for the old
// fmt.Sscanf placeholder parsing, which silently skipped any keyword it
// could not parse: a generic network carrying a keyword that is not a
// placeholder of the shape must surface as an error, not compile into a
// template that substitutes nothing.
func TestSubstitutionFailsLoudly(t *testing.T) {
	poisoned := []*cn.Network{{
		Occs: []cn.Occ{{Schema: "nation", Keywords: []string{"not-a-placeholder"}}},
	}}
	_, err := (&Config{}).compile(context.Background(), poisoned, []string{"john"})
	if err == nil {
		t.Fatal("corrupt generic network compiled silently")
	}
	if !strings.Contains(err.Error(), "placeholder") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// testShapes is a shape memo with its own n build slots.
func testShapes(n int) *Shapes {
	m := NewShapes()
	m.slots = make(chan struct{}, n)
	return m
}

// TestShapesBounded: the memo holds at most shapesCap shapes, evicting
// the least recently used; a lookup refreshes a shape's recency.
func TestShapesBounded(t *testing.T) {
	m := NewShapes()
	put := func(sig string) {
		e := &shape{done: make(chan struct{}), t: &Template{}}
		close(e.done)
		m.c.Put(sig, e)
	}
	for i := 0; i < 2*shapesCap; i++ {
		put(fmt.Sprintf("sig%d", i))
	}
	if got := m.Len(); got != shapesCap {
		t.Fatalf("memo holds %d shapes, cap %d", got, shapesCap)
	}
	last := fmt.Sprintf("sig%d", 2*shapesCap-1)
	if _, ok := m.built(last); !ok {
		t.Fatal("most recent shape evicted")
	}
	if _, ok := m.built("sig0"); ok {
		t.Fatal("oldest shape survived past the cap")
	}
	// Touch the LRU victim, insert, and it stays.
	victim := fmt.Sprintf("sig%d", shapesCap)
	m.built(victim)
	put("fresh")
	if _, ok := m.built(victim); !ok {
		t.Fatal("touched shape was evicted before untouched ones")
	}
}

// TestColdBuildOutlivesItsRequests: requests that give up on a cold
// shape stop waiting, not the build. Every retry joins the one build
// in flight, which publishes when it ends; with both build slots taken
// a third shape gives up waiting for one without starting, and a miss
// after the publish builds nothing.
func TestColdBuildOutlivesItsRequests(t *testing.T) {
	m := testShapes(2)
	release := make(chan struct{})
	var builds atomic.Int32
	build := func(ctx context.Context) (*Template, error) {
		builds.Add(1)
		<-release
		return &Template{}, nil
	}
	try := func(sig string, wantBuilds int32) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		defer cancel()
		if _, err := m.wait(ctx, sig, build); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s on a blocked build: err = %v, want context.DeadlineExceeded", sig, err)
		}
		if n := builds.Load(); n != wantBuilds {
			t.Fatalf("after trying %s: %d builds started, want %d", sig, n, wantBuilds)
		}
	}
	for i := 0; i < 3; i++ {
		try("a", 1)
	}
	try("b", 2)
	try("c", 2)
	close(release)
	for start := time.Now(); ; time.Sleep(time.Millisecond) {
		_, a := m.built("a")
		_, b := m.built("b")
		if a && b {
			break
		}
		if time.Since(start) > 10*time.Second {
			t.Fatal("abandoned builds never published their templates")
		}
	}
	if m.Len() != 2 {
		t.Fatalf("memo holds %d shapes, want a and b: a shape that never got a slot was inserted", m.Len())
	}
	if tm, err := m.wait(context.Background(), "a", build); tm == nil || err != nil || builds.Load() != 2 {
		t.Fatalf("published shape: template %v err %v after %d builds, want it without another build", tm, err, builds.Load())
	}
}

// TestFailedBuildIsNotPublished: the waiters of a failed build get its
// error, the failed shape leaves the memo, and the next miss builds it
// again.
func TestFailedBuildIsNotPublished(t *testing.T) {
	m := testShapes(1)
	var builds atomic.Int32
	fail := errors.New("generator failed")
	build := func(ctx context.Context) (*Template, error) {
		if builds.Add(1) == 1 {
			return nil, fail
		}
		return &Template{}, nil
	}
	if _, err := m.wait(context.Background(), "a", build); !errors.Is(err, fail) {
		t.Fatalf("first build: err = %v, want %v", err, fail)
	}
	if _, ok := m.built("a"); ok || m.Len() != 0 {
		t.Fatalf("failed build left %d shapes in the memo", m.Len())
	}
	if tm, err := m.wait(context.Background(), "a", build); tm == nil || err != nil || builds.Load() != 2 {
		t.Fatalf("retry: template %v err %v after %d builds, want a second build", tm, err, builds.Load())
	}
	if _, ok := m.built("a"); !ok {
		t.Fatal("the retry's build was not published")
	}
}
