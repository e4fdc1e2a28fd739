// Command xkload is the repo's serving benchmark: it builds a DBLP
// corpus, starts real cmd/xkserve processes in one of four topologies,
// drives them over loopback HTTP from this one process, checks every
// answer against the in-RAM single-node answer, and prints each metric
// by name and unit. bench/README.md explains the workloads and metrics;
// BENCHMARK.json at the repo root is the contract it is run under
// (through bench/run.sh, which builds both binaries).
//
//	xkload -workload ram-uniform -seed 3 -seconds 18 -trace 0
//	xkload                      all four workloads, a table for people
//	xkload -check-repeat        all four twice, compared with the bounds
//	xkload -quick               servers in-process on a small corpus
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// runTimeout bounds one workload's run, set-up and teardown included;
// the contract allows 180 s.
const runTimeout = 170 * time.Second

func main() {
	os.Exit(xkload(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command's flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	work     string
	out      string
	quick    bool
	repeat   bool
}

func xkload(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xkload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run (default: all four)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of query choice and arrival times")
	fs.Float64Var(&o.seconds, "seconds", 18, "measured seconds per workload")
	trace := fs.Int("trace", 0, "1: walk the rate ladder and replay in-process with spans; print the per-layer metrics")
	fs.StringVar(&o.work, "work", "", "directory for temporary files and the stored expected answers (default: a temp dir)")
	fs.StringVar(&o.out, "out", filepath.Join("bench", "out"), "directory for trace files and the server logs of failed runs")
	fs.BoolVar(&o.quick, "quick", false, "smoke run: small corpus, servers in this process")
	fs.BoolVar(&o.repeat, "check-repeat", false, "run the set twice with the same seed and compare against BENCHMARK.json's bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = *trace == 1
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := realMain(ctx, stdout, stderr, o); err != nil {
		fmt.Fprintln(stderr, "xkload:", err)
		return 1
	}
	return 0
}

func realMain(ctx context.Context, stdout, stderr io.Writer, o options) error {
	set := workloads
	if o.workload != "" {
		w := workloadByName(o.workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		set = []*workload{w}
	}
	clients := runtime.NumCPU()
	if clients > 4 {
		clients = 4
	}
	if clients < 2 {
		clients = 2
	}
	e := &env{work: o.work, out: o.out, clients: clients}
	if e.work == "" {
		tmp, err := os.MkdirTemp("", "xkload-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		e.work = tmp
	}
	if !o.quick {
		exe, err := os.Executable()
		if err != nil {
			return err
		}
		e.xkserve = filepath.Join(filepath.Dir(exe), "xkserve")
		if _, err := os.Stat(e.xkserve); err != nil {
			return fmt.Errorf("no xkserve binary beside xkload (run bench/run.sh, which builds both): %w", err)
		}
	}

	corpusDir, err := os.MkdirTemp(e.work, "corpus-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(corpusDir)
	scale := corpusScale
	if o.quick {
		scale = 1
	}
	c, err := buildCorpus(corpusDir, scale)
	if err != nil {
		return err
	}
	orc := newOracle(c.sys, c.uni)
	if o.work != "" && !o.quick {
		if err := orc.stored(o.work); err != nil {
			return fmt.Errorf("expected answers: %w", err)
		}
	}

	runSet := func() ([]*result, error) {
		var out []*result
		for _, w := range set {
			wctx, cancel := context.WithTimeout(ctx, runTimeout)
			res, err := runWorkload(wctx, e, c, orc, w, o.seed, o.seconds, o.trace)
			cancel()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			report(stderr, res, o.trace)
			out = append(out, res)
		}
		return out, nil
	}
	first, err := runSet()
	if err != nil {
		return err
	}
	if o.repeat {
		second, err := runSet()
		if err != nil {
			return err
		}
		return compare(stderr, first, second)
	}
	if o.workload != "" {
		// The contract's result line; whether the answers were right is
		// in it, so the exit code only says that a result was printed.
		return json.NewEncoder(stdout).Encode(resultLine(first[0], o.trace))
	}
	for _, r := range first {
		if r.failed > 0 {
			return fmt.Errorf("%s: %d of %d operations failed or answered wrongly", r.workload, r.failed, r.attempted)
		}
	}
	return nil
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type line struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func resultLine(r *result, trace bool) line {
	l := line{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	list, vals := endToEnd, r.e2e
	if trace {
		list, vals = perLayer, r.layer
	}
	for _, m := range list {
		l.Metrics[m.name] = value{vals[m.name], m.unit}
	}
	return l
}

// report prints one workload's numbers for people.
func report(w io.Writer, r *result, trace bool) {
	fmt.Fprintf(w, "\n%s: attempted %d, failed %d (fail_frac %.4g ratio)\n", r.workload, r.attempted, r.failed, r.failFrac())
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-34s %12.4f %s\n", m.name, r.e2e[m.name], m.unit)
	}
	level, ok := highestPercentile(r.samples)
	fmt.Fprintf(w, "  p50_ms and p80_ms are from %d open-loop samples; their p99 is %.4f ms", r.samples, r.p99)
	switch {
	case !ok:
		fmt.Fprint(w, "; too few to support any percentile\n")
	case level < 0.99:
		fmt.Fprintf(w, ", but they support no percentile above p%g\n", level*100)
	default:
		fmt.Fprintln(w)
	}
	if v := r.layer["ingest_p50_ms"]; v > 0 && !trace {
		fmt.Fprintf(w, "  %-34s %12.4f ms\n", "ingest_p50_ms", v)
	}
	if trace {
		for _, m := range perLayer {
			fmt.Fprintf(w, "  %-34s %12.4f %s\n", m.name, r.layer[m.name], m.unit)
		}
	}
}

// compare prints, per workload and end-to-end metric, both runs' values,
// their relative difference and the bound, and fails if the second run
// is worse than the first by more than the bound.
func compare(w io.Writer, first, second []*result) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("-check-repeat reads the bounds from BENCHMARK.json in the working directory: %w", err)
	}
	var spec struct {
		EndToEnd []struct {
			Name, Better string
			Bound        float64
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return err
	}
	var bad []string
	for i, a := range first {
		b := second[i]
		fmt.Fprintf(w, "\n%s\n  %-20s %12s %12s %9s %7s\n", a.workload, "metric", "first", "second", "diff", "bound")
		for _, m := range spec.EndToEnd {
			x, y := a.e2e[m.Name], b.e2e[m.Name]
			worse := ratio(y-x, x)
			if m.Better == "higher" {
				worse = -worse
			}
			mark := ""
			if worse > m.Bound {
				mark = "  EXCEEDS"
				bad = append(bad, a.workload+"/"+m.Name)
			}
			fmt.Fprintf(w, "  %-20s %12.4f %12.4f %+8.1f%% %6.0f%%%s\n", m.Name, x, y, 100*ratio(y-x, x), 100*m.Bound, mark)
		}
		if a.failed+b.failed > 0 {
			bad = append(bad, a.workload+"/failed")
		}
	}
	if len(bad) > 0 {
		return errors.New("runs of the same code differ by more than the bound: " + fmt.Sprint(bad))
	}
	return nil
}
