package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// run builds the command into a temporary directory, executes it with
// args and returns stdout, stderr and the exit code.
func run(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	gobin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(gobin); err != nil {
		if gobin, err = exec.LookPath("go"); err != nil {
			t.Fatalf("no go tool: %v", err)
		}
	}
	bin := filepath.Join(t.TempDir(), "xkbench")
	if out, err := exec.Command(gobin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, args...)
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
	t.Fatalf("xkbench %v: %v", args, err)
	return "", "", 0
}

// TestSpaceFigure: the quick decomposition-space table prints one row
// per decomposition preset.
func TestSpaceFigure(t *testing.T) {
	stdout, stderr, code := run(t, "-quick", "-fig", "space")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "Decomposition space") {
		t.Fatalf("no space table in output:\n%s", stdout)
	}
	for _, preset := range []string{"xkeyword", "complete", "minclust", "minnclustindx", "minnclustnindx"} {
		if !strings.Contains(stdout, "\n"+preset+" ") {
			t.Errorf("no %s row in output:\n%s", preset, stdout)
		}
	}
}

// TestUnknownFigure: an unknown figure is a usage error that names the
// valid ones, reported before the workload is generated.
func TestUnknownFigure(t *testing.T) {
	stdout, stderr, code := run(t, "-quick", "-fig", "15")
	if code == 0 {
		t.Fatalf("-fig 15 exited 0:\n%s", stdout)
	}
	if !strings.Contains(stderr, "15a") || !strings.Contains(stderr, "baseline") {
		t.Fatalf("stderr does not name the valid figures: %q", stderr)
	}
	if strings.Contains(stdout, "# dataset:") {
		t.Fatalf("the workload was generated before the figure was checked:\n%s", stdout)
	}
}
