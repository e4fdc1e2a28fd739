package core_test

import (
	"reflect"
	"strconv"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/optimizer"
	"repro/internal/relstore"
)

// A loaded system serves concurrent queries (the demo server's usage
// pattern); run under -race in CI.
func TestConcurrentQueries(t *testing.T) {
	s := loadFig1(t, core.Options{Z: 8})
	queries := [][]string{{"john", "vcr"}, {"us", "vcr"}, {"tv", "vcr"}, {"mike", "dvd"}}
	want := make(map[int]int)
	for i, q := range queries {
		rs, err := s.QueryAll(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = len(rs)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				qi := (w + i) % len(queries)
				rs, err := s.QueryAll(queries[qi])
				if err != nil {
					errs <- err
					return
				}
				if len(rs) != want[qi] {
					errs <- nil
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent query mismatch: %v", err)
	}
}

// TestConcurrentColdShape races many goroutines onto one cold keyword
// shape: all of them miss the shape memo together, compile and publish
// its template, and from then on share one template and its lazily
// filled per-seed step orders. Every plan must equal the one a fresh
// system derives alone; run under -race in CI. Templates are immutable
// once published and a plan's Net and Filters are the query's own, so
// there is nothing for the goroutines to race on but the memo's lock
// and the shapes' step cache.
func TestConcurrentColdShape(t *testing.T) {
	// Same shape (a person name, a product word), different keywords,
	// so containing-list sizes and with them the seeds differ.
	queries := [][]string{{"john", "vcr"}, {"mike", "dvd"}, {"john", "tv"}, {"mike", "vcr"}, {"john", "dvd"}}
	ref := loadFig1(t, core.Options{Z: 8})
	want := make([][]planValue, len(queries))
	for i, q := range queries {
		plans, err := ref.Plans(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(plans) == 0 {
			t.Fatalf("%v derives no plan", q)
		}
		want[i] = bySystemValue(plans)
	}

	s := loadFig1(t, core.Options{Z: 8})
	const goroutines = 16
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < 3*len(queries); i++ {
				qi := (w + i) % len(queries)
				got, err := s.Plans(queries[qi])
				if err != nil {
					t.Errorf("%v: %v", queries[qi], err)
					return
				}
				if !reflect.DeepEqual(bySystemValue(got), want[qi]) {
					t.Errorf("%v: concurrent plans differ from a fresh system's", queries[qi])
					return
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
}

// planValue is a plan in a form two Systems can be compared on: a
// step's resolved relation and compiled access paths point into its own
// System's store, so Plan has them cleared and Access holds, per piece
// step, what they resolve to — the relation's name, the probe path's
// kind, and each pushdown position with its path's kind.
type planValue struct {
	Plan   optimizer.Plan
	Access [][]string
}

func bySystemValue(plans []*optimizer.Plan) []planValue {
	out := make([]planValue, len(plans))
	for i, pl := range plans {
		v := planValue{Plan: *pl}
		v.Plan.Steps = append([]optimizer.Step(nil), pl.Steps...)
		for j := range v.Plan.Steps {
			s := &v.Plan.Steps[j]
			if s.Seed {
				continue
			}
			resolved := []string{s.Rel.Name, s.Probe.Path().String()}
			for _, pd := range s.Push {
				resolved = append(resolved, strconv.Itoa(pd.Pos), pd.Access.Path().String())
			}
			v.Access = append(v.Access, resolved)
			s.Rel, s.Probe, s.Push = nil, relstore.Access{}, nil
		}
		out[i] = v
	}
	return out
}
