// Command xkbenchjson turns `go test -bench` text output into a
// machine-readable benchmark trajectory file. It reads the test binary's
// stdout on stdin, tees every line through unchanged (so the run stays
// readable in the terminal and in CI logs), and writes the parsed
// results as JSON with -out. The committed BENCH_*.json files at the
// repo root are produced this way; regenerating one and diffing it is
// the cheap check that a change did not regress the write or read path.
//
// Usage:
//
//	go test -run xxx -bench BenchmarkSegidx -benchmem ./internal/segidx/ |
//	    xkbenchjson -out BENCH_segidx.json
//
// Each benchmark line ("BenchmarkFoo/cold-8  100  12345 ns/op  67 B/op
// 8 allocs/op") becomes one entry with the sub-benchmark path preserved,
// so cold/warm and synced/nosync variants stay distinguishable. Header
// lines (goos, goarch, pkg, cpu) are captured as run metadata. The exit
// status is nonzero when the input contains a test failure or no
// benchmark results at all, so a piped Makefile target cannot silently
// commit an empty trajectory.
//
// With -compare OLD.json the run is also checked against a committed
// trajectory file: for every benchmark present in both (same name and
// GOMAXPROCS), allocs/op may not exceed the old value by more than
// -max-allocs-regress (default 5%), else the exit status is nonzero.
// Allocation counts are what a rerun on a shared machine reproduces
// exactly; ns/op is printed as a delta and never failed on.
//
//	go test -run xxx -bench 'BenchmarkQuery$' -cpu 1 -benchmem . |
//	    xkbenchjson -compare BENCH_pipeline.json -max-allocs-regress 5%
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
)

// benchResult is one parsed benchmark line.
type benchResult struct {
	// Name is the benchmark path without the "Benchmark" prefix or the
	// trailing -GOMAXPROCS suffix, e.g. "SegidxLookup/cold".
	Name string `json:"name"`
	// Procs is the GOMAXPROCS suffix of the line (0 when absent).
	Procs      int   `json:"procs,omitempty"`
	Iterations int64 `json:"iterations"`
	// NsPerOp is the reported ns/op (fractional for sub-nanosecond ops).
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	MBPerSec    *float64 `json:"mb_per_sec,omitempty"`
	// Extra holds any custom ReportMetric units, keyed by unit string.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// benchFile is the JSON document written to -out.
type benchFile struct {
	GOOS       string        `json:"goos,omitempty"`
	GOARCH     string        `json:"goarch,omitempty"`
	Pkg        string        `json:"pkg,omitempty"`
	CPU        string        `json:"cpu,omitempty"`
	Benchmarks []benchResult `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "", "write the parsed results as JSON to this file")
	compareTo := flag.String("compare", "", "compare the run against this committed BENCH_*.json and fail on an allocs/op regression")
	maxRegress := flag.String("max-allocs-regress", "5%", "with -compare: how far allocs/op may exceed the old value (\"5%\" or \"0.05\")")
	flag.Parse()
	limit, err := parseFraction(*maxRegress)
	if err != nil {
		fatal(fmt.Errorf("-max-allocs-regress: %v", err))
	}

	var doc benchFile
	failed := false
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			doc.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			doc.Pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseBenchLine(line); ok {
				doc.Benchmarks = append(doc.Benchmarks, r)
			}
		case strings.HasPrefix(line, "--- FAIL") || line == "FAIL" || strings.HasPrefix(line, "FAIL\t"):
			failed = true
		}
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	if failed {
		fatal(fmt.Errorf("benchmark run failed; not writing %s", *out))
	}
	if len(doc.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark results on stdin (is -bench set?)"))
	}
	if *out != "" {
		buf, err := json.MarshalIndent(&doc, "", "  ")
		if err != nil {
			fatal(err)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "xkbenchjson: %d results -> %s\n", len(doc.Benchmarks), *out)
	}
	if *compareTo != "" {
		buf, err := os.ReadFile(*compareTo)
		if err != nil {
			fatal(err)
		}
		var old benchFile
		if err := json.Unmarshal(buf, &old); err != nil {
			fatal(fmt.Errorf("%s: %v", *compareTo, err))
		}
		report, regressed := compare(old.Benchmarks, doc.Benchmarks, limit)
		fmt.Print(report)
		if len(regressed) > 0 {
			fatal(fmt.Errorf("allocs/op regressed by more than %s against %s: %s", *maxRegress, *compareTo, strings.Join(regressed, ", ")))
		}
	}
}

// parseFraction reads "5%" or "0.05" as 0.05.
func parseFraction(s string) (float64, error) {
	pct := strings.HasSuffix(s, "%")
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("%q is not a non-negative fraction or percentage", s)
	}
	if pct {
		v /= 100
	}
	return v, nil
}

// compare renders a table of the benchmarks present in both runs (same
// name and GOMAXPROCS) and names those whose allocs/op exceeds the old
// value by more than limit. Finding no benchmark in common, or none of
// them reporting allocations, is itself a regression of the gate: it
// would otherwise pass while checking nothing.
func compare(old, cur []benchResult, limit float64) (report string, regressed []string) {
	type key struct {
		name  string
		procs int
	}
	was := make(map[key]benchResult, len(old))
	for _, r := range old {
		was[key{r.Name, r.Procs}] = r
	}
	var sb strings.Builder
	tw := tabwriter.NewWriter(&sb, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tallocs/op\tB/op\tns/op\t")
	checked := 0
	for _, r := range cur {
		o, ok := was[key{r.Name, r.Procs}]
		if !ok {
			continue
		}
		label := r.Name
		if r.Procs > 0 {
			label += "-" + strconv.Itoa(r.Procs)
		}
		verdict := ""
		if o.AllocsPerOp != nil && r.AllocsPerOp != nil {
			checked++
			if *r.AllocsPerOp > *o.AllocsPerOp*(1+limit) {
				regressed = append(regressed, label)
				verdict = "REGRESSED"
			}
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n", label,
			oldNew(o.AllocsPerOp, r.AllocsPerOp), oldNew(o.BytesPerOp, r.BytesPerOp), delta(o.NsPerOp, r.NsPerOp), verdict)
	}
	tw.Flush()
	if checked == 0 {
		regressed = append(regressed, "no benchmark with allocs/op in common")
	}
	return sb.String(), regressed
}

// oldNew renders "746 -> 179 (-76.0%)", or "-" when either side did not
// report the unit.
func oldNew(o, n *float64) string {
	if o == nil || n == nil {
		return "-"
	}
	return fmt.Sprintf("%.0f -> %.0f (%s)", *o, *n, delta(*o, *n))
}

// delta renders the relative change from o to n.
func delta(o, n float64) string {
	switch {
	case o == n:
		return "+0.0%"
	case o == 0:
		return "new"
	}
	return fmt.Sprintf("%+.1f%%", 100*(n-o)/o)
}

// parseBenchLine parses one result line: a name, an iteration count,
// then (value, unit) pairs.
func parseBenchLine(line string) (benchResult, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return benchResult{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return benchResult{}, false
	}
	r := benchResult{Iterations: iters}
	r.Name, r.Procs = splitProcs(strings.TrimPrefix(fields[0], "Benchmark"))
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return benchResult{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
			seen = true
		case "B/op":
			b := v
			r.BytesPerOp = &b
		case "allocs/op":
			a := v
			r.AllocsPerOp = &a
		case "MB/s":
			m := v
			r.MBPerSec = &m
		default:
			if r.Extra == nil {
				r.Extra = make(map[string]float64)
			}
			r.Extra[unit] = v
		}
	}
	return r, seen
}

// splitProcs strips the trailing -GOMAXPROCS suffix go test appends to
// every benchmark name ("Foo/cold-8" -> "Foo/cold", 8). A trailing
// -<digits> that is part of a sub-benchmark's own name is
// indistinguishable from the suffix; the repo's benchmarks avoid that.
func splitProcs(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name, 0
	}
	n, err := strconv.Atoi(name[i+1:])
	if err != nil || n <= 0 {
		return name, 0
	}
	return name[:i], n
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xkbenchjson:", err)
	os.Exit(1)
}
