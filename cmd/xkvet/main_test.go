package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
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
		dir, err := os.MkdirTemp("", "xkvet-test-")
		if err != nil {
			buildErr = err
			return
		}
		binPath = filepath.Join(dir, "xkvet")
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

// run executes the binary with args, returning stdout, stderr and the
// exit code.
func run(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(binary(t), args...)
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
	t.Fatalf("xkvet %v: %v", args, err)
	return "", "", 0
}

// tempModule writes a one-package module whose internal/a/a.go holds
// src, so the path-scoped errdrop analyzer applies to it.
func tempModule(t *testing.T, src string) string {
	t.Helper()
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module tmpmod\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "internal", "a")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "a.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return root
}

func TestCleanModule(t *testing.T) {
	root := tempModule(t, "package a\n\nfunc F() int { return 1 }\n")
	stdout, stderr, code := run(t, "-dir", root)
	if code != 0 || stdout != "" {
		t.Fatalf("exit %d, stdout %q, stderr %q; want exit 0 and no output", code, stdout, stderr)
	}
}

// TestFinding checks a dropped error exits 1 with the canonical
// finding line, and that -sarif still writes its log on a failing run.
func TestFinding(t *testing.T) {
	root := tempModule(t, "package a\n\nimport \"os\"\n\nfunc F() {\n\tos.Remove(\"x\")\n}\n")
	sarif := filepath.Join(t.TempDir(), "out.sarif")
	stdout, stderr, code := run(t, "-dir", root, "-sarif", sarif)
	if code != 1 {
		t.Fatalf("exit %d, stderr %q; want 1", code, stderr)
	}
	if !regexp.MustCompile(`^internal/a/a\.go:6: \[errdrop\] os\.Remove discards an error result`).MatchString(stdout) {
		t.Errorf("stdout %q lacks the errdrop finding", stdout)
	}
	if n := strings.Count(stdout, "\n"); n != 1 {
		t.Errorf("stdout has %d lines, want 1:\n%s", n, stdout)
	}
	log, err := os.ReadFile(sarif)
	if err != nil {
		t.Fatalf("-sarif log not written: %v", err)
	}
	if !strings.Contains(string(log), `"ruleId": "errdrop"`) {
		t.Errorf("SARIF log names no errdrop result:\n%s", log)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-analyzers", "nosuch"},
		{"-format", "yaml"},
	} {
		if _, stderr, code := run(t, args...); code != 2 {
			t.Errorf("xkvet %v: exit %d, stderr %q; want 2", args, code, stderr)
		}
	}
}

func TestList(t *testing.T) {
	stdout, stderr, code := run(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(stdout), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	want := "errdrop keyjoin lockguard maporder retryloop"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("-list names %q, want %q", got, want)
	}
}
