package main

import (
	"reflect"
	"strings"
	"testing"
)

func f(v float64) *float64 { return &v }

func TestCompare(t *testing.T) {
	old := []benchResult{
		{Name: "Query", NsPerOp: 91273, BytesPerOp: f(45936), AllocsPerOp: f(746)},
		{Name: "Query", Procs: 2, NsPerOp: 122993, BytesPerOp: f(53059), AllocsPerOp: f(843)},
		{Name: "LookupPaths/clustered", NsPerOp: 751, BytesPerOp: f(991), AllocsPerOp: f(0)},
		{Name: "Retired", NsPerOp: 10, AllocsPerOp: f(3)},
		{Name: "NoMem", NsPerOp: 10},
	}
	cases := []struct {
		name      string
		cur       []benchResult
		limit     float64
		regressed []string
		report    []string // substrings the table must contain
	}{
		{
			name:   "fewer allocations pass; ns/op is only a delta",
			cur:    []benchResult{{Name: "Query", NsPerOp: 182546, BytesPerOp: f(16552), AllocsPerOp: f(179)}},
			limit:  0.05,
			report: []string{"746 -> 179 (-76.0%)", "45936 -> 16552", "+100.0%"},
		},
		{
			name:  "within the limit passes, exactly at the limit included",
			cur:   []benchResult{{Name: "Query", NsPerOp: 1, AllocsPerOp: f(783.3)}},
			limit: 0.05,
		},
		{
			name:      "past the limit fails and names the benchmark",
			cur:       []benchResult{{Name: "Query", NsPerOp: 1, AllocsPerOp: f(784)}},
			limit:     0.05,
			regressed: []string{"Query"},
			report:    []string{"REGRESSED"},
		},
		{
			name:      "GOMAXPROCS is part of the identity",
			cur:       []benchResult{{Name: "Query", Procs: 2, NsPerOp: 1, AllocsPerOp: f(800)}, {Name: "Query", NsPerOp: 1, AllocsPerOp: f(800)}},
			limit:     0.05,
			regressed: []string{"Query"},
			report:    []string{"Query-2"},
		},
		{
			name:      "a zero-allocation benchmark may not start allocating",
			cur:       []benchResult{{Name: "LookupPaths/clustered", NsPerOp: 300, BytesPerOp: f(16), AllocsPerOp: f(1)}},
			limit:     0.05,
			regressed: []string{"LookupPaths/clustered"},
		},
		{
			name:  "benchmarks on one side only are not compared",
			cur:   []benchResult{{Name: "Query", NsPerOp: 1, AllocsPerOp: f(746)}, {Name: "Brand/new", NsPerOp: 1, AllocsPerOp: f(1e6)}},
			limit: 0,
		},
		{
			name:      "nothing in common fails instead of passing vacuously",
			cur:       []benchResult{{Name: "Brand/new", NsPerOp: 1, AllocsPerOp: f(1)}},
			limit:     0.05,
			regressed: []string{"no benchmark with allocs/op in common"},
		},
		{
			name:      "a common benchmark without -benchmem on a side checks nothing",
			cur:       []benchResult{{Name: "NoMem", NsPerOp: 5, AllocsPerOp: f(9)}},
			limit:     0.05,
			regressed: []string{"no benchmark with allocs/op in common"},
			report:    []string{"-50.0%"},
		},
	}
	for _, c := range cases {
		report, regressed := compare(old, c.cur, c.limit)
		if !reflect.DeepEqual(regressed, c.regressed) {
			t.Errorf("%s: regressed = %v, want %v\n%s", c.name, regressed, c.regressed, report)
		}
		for _, want := range c.report {
			if !strings.Contains(report, want) {
				t.Errorf("%s: report lacks %q:\n%s", c.name, want, report)
			}
		}
		if strings.Contains(report, "Retired") {
			t.Errorf("%s: report lists a benchmark the run did not produce:\n%s", c.name, report)
		}
	}
}

func TestParseFraction(t *testing.T) {
	for in, want := range map[string]float64{"5%": 0.05, "0.05": 0.05, "0": 0, "12.5%": 0.125} {
		if got, err := parseFraction(in); err != nil || got != want {
			t.Errorf("parseFraction(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"", "five", "-1%", "%"} {
		if _, err := parseFraction(in); err == nil {
			t.Errorf("parseFraction(%q) accepted", in)
		}
	}
}
