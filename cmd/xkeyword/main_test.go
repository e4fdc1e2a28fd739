package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	xexec "repro/internal/exec"
	"repro/internal/graphsource"
	"repro/internal/pipeline"
)

var (
	buildOnce sync.Once
	binPath   string
	buildErr  error
)

// binary builds the command once per test process into a temporary
// directory and returns its path.
func binary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		gobin := filepath.Join(runtime.GOROOT(), "bin", "go")
		if _, err := os.Stat(gobin); err != nil {
			if gobin, err = exec.LookPath("go"); err != nil {
				buildErr = fmt.Errorf("no go tool: %w", err)
				return
			}
		}
		dir, err := os.MkdirTemp("", "xkeyword-test-")
		if err != nil {
			buildErr = err
			return
		}
		binPath = filepath.Join(dir, "xkeyword")
		if out, err := exec.Command(gobin, "build", "-o", binPath, ".").CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return binPath
}

func TestMain(m *testing.M) {
	code := m.Run()
	if binPath != "" {
		os.RemoveAll(filepath.Dir(binPath))
	}
	os.Exit(code)
}

// run executes the binary with args and stdin, returning stdout, stderr
// and the exit code.
func run(t *testing.T, stdin string, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(binary(t), args...)
	cmd.Stdin = strings.NewReader(stdin)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exitErr *exec.ExitError
	switch {
	case err == nil:
		return stdout.String(), stderr.String(), 0
	case errors.As(err, &exitErr):
		return stdout.String(), stderr.String(), exitErr.ExitCode()
	}
	t.Fatalf("xkeyword %v: %v", args, err)
	return "", "", 0
}

// builtinTPCH loads what `xkeyword -schema tpch` loads, through the same
// source and options, ranked by scorer by default.
func builtinTPCH(t *testing.T, scorer string) *core.System {
	t.Helper()
	src, err := graphsource.Resolve(graphsource.Inputs{Schema: "tpch"})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := graphsource.Load(src, core.Options{Z: 8, Decomposition: core.PresetXKeyword, Scorer: scorer})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// count reads the number that starts the first stdout line of the form
// "<n> <marker>…" ("results in", "candidate networks").
func count(t *testing.T, stdout, marker string) int {
	t.Helper()
	for _, line := range strings.Split(stdout, "\n") {
		var n int
		if _, err := fmt.Sscanf(line, "%d "+marker, &n); err == nil {
			return n
		}
	}
	t.Fatalf("no %q line in output:\n%s", marker, stdout)
	return 0
}

// TestCommandCountsMatchCore runs the built binary on the built-in TPC-H
// data in each query mode and checks every result count against the
// library answering the same query.
func TestCommandCountsMatchCore(t *testing.T) {
	kws := []string{"us", "vcr"}
	sys := builtinTPCH(t, "")
	weighted := builtinTPCH(t, "weighted")

	topk, _, err := sys.QueryScoredContext(context.Background(), kws, 7, "")
	if err != nil {
		t.Fatal(err)
	}
	all := &pipeline.Query{Keywords: kws, Mode: pipeline.ModeAll, Strategy: xexec.AutoStrategy}
	if err := sys.Run(context.Background(), all); err != nil {
		t.Fatal(err)
	}
	plans, err := sys.Plans(kws)
	if err != nil {
		t.Fatal(err)
	}
	ranked, _, err := weighted.QueryScoredContext(context.Background(), kws, 10, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Results) <= 10 {
		t.Fatalf("only %d results for %v: top-k and -all would not differ", len(all.Results), kws)
	}

	for _, tc := range []struct {
		name   string
		args   []string
		marker string
		want   int
	}{
		{"topk", []string{"-k", "7"}, "results in", len(topk)},
		{"all", []string{"-all"}, "results in", len(all.Results)},
		{"explain", []string{"-explain"}, "candidate networks", len(plans)},
		{"weighted", []string{"-scorer", "weighted"}, "results in", len(ranked)},
		// k ≤ 0 asks for nothing, whatever the scorer.
		{"k0-weighted", []string{"-k", "0", "-scorer", "weighted"}, "results in", 0},
	} {
		args := append(append([]string{"-schema", "tpch"}, tc.args...), kws...)
		stdout, stderr, code := run(t, "", args...)
		if code != 0 {
			t.Fatalf("%s: exit %d\n%s", tc.name, code, stderr)
		}
		if got := count(t, stdout, tc.marker); got != tc.want {
			t.Fatalf("%s: xkeyword printed %d, core %d", tc.name, got, tc.want)
		}
	}
}

// TestCommandFailedQueryExitCode: a failed command-line query exits
// non-zero; in stdin mode the failed line is reported and the next one
// still answered.
func TestCommandFailedQueryExitCode(t *testing.T) {
	_, stderr, code := run(t, "", "-schema", "tpch", "!!!")
	if code == 0 {
		t.Fatalf("failed query exited 0:\n%s", stderr)
	}
	if !strings.Contains(stderr, "has no tokens") {
		t.Fatalf("failed query did not say why:\n%s", stderr)
	}

	stdout, stderr, code := run(t, "!!!\nus vcr\n", "-schema", "tpch")
	if code != 0 {
		t.Fatalf("stdin mode exit %d:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "has no tokens") {
		t.Fatalf("stdin mode did not report the failed line:\n%s", stderr)
	}
	if got := count(t, stdout, "results in"); got != 10 {
		t.Fatalf("stdin mode answered the next line with %d results, want 10", got)
	}
}
