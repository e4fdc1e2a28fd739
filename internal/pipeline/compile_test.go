package pipeline

import (
	"context"
	"errors"
	"strings"
	"sync"
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

// syncMemo is a TemplateCache over a plain map.
type syncMemo struct {
	mu sync.Mutex
	m  map[string]*Template // guarded by mu
}

func (sm *syncMemo) Template(sig string) (*Template, bool) {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	t, ok := sm.m[sig]
	return t, ok
}

func (sm *syncMemo) PutTemplate(sig string, t *Template) {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	sm.m[sig] = t
}

// TestColdBuildOutlivesItsRequests: requests that give up on a cold
// shape stop waiting, not the build. Every retry joins the one build
// in flight, which publishes when it ends; with both build slots taken
// a third shape gives up waiting for one without starting, and a miss
// that reaches the group after the publish builds nothing.
func TestColdBuildOutlivesItsRequests(t *testing.T) {
	g := &buildGroup{m: make(map[coldKey]*coldBuild), slots: make(chan struct{}, 2)}
	memo := &syncMemo{m: make(map[string]*Template)}
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
		if _, err := g.do(ctx, coldKey{memo, sig}, build); !errors.Is(err, context.DeadlineExceeded) {
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
		_, a := memo.Template("a")
		_, b := memo.Template("b")
		if a && b {
			break
		}
		if time.Since(start) > 10*time.Second {
			t.Fatal("abandoned builds never published their templates")
		}
	}
	if _, ok := memo.Template("c"); ok {
		t.Fatal("a shape that never got a slot was built")
	}
	if tm, err := g.do(context.Background(), coldKey{memo, "a"}, build); tm == nil || err != nil || builds.Load() != 2 {
		t.Fatalf("published shape: template %v err %v after %d builds, want it without another build", tm, err, builds.Load())
	}
}
