package kwindex_test

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/kwindex"
)

// fallible serves its index until err is set, then answers empty.
type fallible struct {
	*kwindex.Index
	err error
}

func (f *fallible) ContainingList(k string) []kwindex.Posting {
	if f.err != nil {
		return nil
	}
	return f.Index.ContainingList(k)
}

func (f *fallible) Err() error { return f.err }

// TestFailoverHealth walks a Failover through each state and checks the
// verdict HealthOf gives it, and that a healed one answers correctly.
func TestFailoverHealth(t *testing.T) {
	ix, _ := buildFig1Index(t)
	want := ix.ContainingList("john")
	boom := errors.New("page read failed")
	rebuildErr := errors.New("out of memory")
	for _, tc := range []struct {
		name    string
		failed  bool
		rebuild func() (kwindex.Source, error)
		want    kwindex.Health
	}{
		{"healthy", false, func() (kwindex.Source, error) { return ix, nil }, kwindex.HealthOK},
		{"healed", true, func() (kwindex.Source, error) { return ix, nil }, kwindex.HealthDegraded},
		{"rebuild failed", true, func() (kwindex.Source, error) { return nil, rebuildErr }, kwindex.HealthUnavailable},
		{"no rebuild", true, nil, kwindex.HealthUnavailable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			primary := &fallible{Index: ix}
			var degraded []error
			fo := kwindex.NewFailover(primary, tc.rebuild, func(err error) { degraded = append(degraded, err) })
			if tc.failed {
				primary.err = boom
			}
			got := fo.ContainingList("john")
			h, err := kwindex.HealthOf(fo)
			if h != tc.want {
				t.Fatalf("health %q (%v), want %q", h, err, tc.want)
			}
			if (h == kwindex.HealthOK) != (err == nil) || (err != nil && !errors.Is(err, boom)) {
				t.Fatalf("health %q with error %v", h, err)
			}
			if tc.want != kwindex.HealthUnavailable && !reflect.DeepEqual(got, want) {
				t.Fatalf("ContainingList(john) = %v, want %v", got, want)
			}
			if tc.want == kwindex.HealthUnavailable && tc.rebuild != nil && !errors.Is(err, rebuildErr) {
				t.Fatalf("unavailable error %v does not name the rebuild failure", err)
			}
			if n := len(degraded); n != map[bool]int{false: 0, true: 1}[tc.failed] {
				t.Fatalf("onDegrade called %d times", n)
			}
		})
	}
}

// TestFailoverHealthNoticesIdleFailure: a primary that failed since its
// last lookup degrades the Failover when its health is asked, not first
// at the next query.
func TestFailoverHealthNoticesIdleFailure(t *testing.T) {
	ix, _ := buildFig1Index(t)
	primary := &fallible{Index: ix}
	fo := kwindex.NewFailover(primary, func() (kwindex.Source, error) { return ix, nil }, nil)
	primary.err = errors.New("sidecar went away")
	if h, _ := fo.Health(); h != kwindex.HealthDegraded {
		t.Fatalf("health %q, want degraded", h)
	}
	if got, want := fo.ContainingList("vcr"), ix.ContainingList("vcr"); !reflect.DeepEqual(got, want) {
		t.Fatalf("ContainingList(vcr) = %v, want %v", got, want)
	}
}

// TestDegradedFailover: a Failover that starts degraded has already
// notified and rebuilt when its constructor returns, serves from the
// rebuild, and reports degraded with the cause.
func TestDegradedFailover(t *testing.T) {
	ix, _ := buildFig1Index(t)
	cause := errors.New("sidecar truncated")
	var notified error
	fo := kwindex.NewDegradedFailover(cause, func() (kwindex.Source, error) { return ix, nil }, func(err error) { notified = err })
	if notified != cause {
		t.Fatalf("onDegrade got %v before return, want %v", notified, cause)
	}
	if h, err := kwindex.HealthOf(fo); h != kwindex.HealthDegraded || err != cause {
		t.Fatalf("health %q (%v), want degraded (%v)", h, err, cause)
	}
	if got, want := fo.ContainingList("john"), ix.ContainingList("john"); !reflect.DeepEqual(got, want) {
		t.Fatalf("ContainingList(john) = %v, want %v", got, want)
	}
	if fo.NumPostings() != ix.NumPostings() {
		t.Fatalf("NumPostings %d, want %d", fo.NumPostings(), ix.NumPostings())
	}

	failed := kwindex.NewDegradedFailover(cause, nil, nil)
	if h, _ := kwindex.HealthOf(failed); h != kwindex.HealthUnavailable {
		t.Fatalf("no rebuild: health %q, want unavailable", h)
	}
	if got := failed.ContainingList("john"); len(got) != 0 {
		t.Fatalf("no rebuild: ContainingList(john) = %v, want empty", got)
	}
}

// TestHealthOf covers the sources without a Health method, and the
// order Worse imposes.
func TestHealthOf(t *testing.T) {
	ix, _ := buildFig1Index(t)
	if h, err := kwindex.HealthOf(ix); h != kwindex.HealthOK || err != nil {
		t.Fatalf("plain index: %q (%v)", h, err)
	}
	if h, err := kwindex.HealthOf(nil); h != kwindex.HealthOK || err != nil {
		t.Fatalf("nil source: %q (%v)", h, err)
	}
	bad := &fallible{Index: ix, err: errors.New("read failed")}
	if h, err := kwindex.HealthOf(bad); h != kwindex.HealthUnavailable || err != bad.err {
		t.Fatalf("failed reader: %q (%v)", h, err)
	}
	order := []kwindex.Health{kwindex.HealthOK, kwindex.HealthDegraded, kwindex.HealthUnavailable, "bogus"}
	for i, a := range order {
		for j, b := range order {
			if got, want := a.Worse(b), min(i, 2) > min(j, 2); got != want {
				t.Fatalf("%q.Worse(%q) = %v", a, b, got)
			}
		}
	}
}
