package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"repro/internal/edgelist"
)

// build compiles the command in pkg (a directory relative to this one)
// into dir/name and returns the binary's path.
func build(t *testing.T, dir, pkg, name string) string {
	t.Helper()
	gobin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(gobin); err != nil {
		if gobin, err = exec.LookPath("go"); err != nil {
			t.Fatalf("no go tool: %v", err)
		}
	}
	bin := filepath.Join(dir, name)
	if out, err := exec.Command(gobin, "build", "-o", bin, pkg).CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// run executes bin with args, returning stdout, stderr and the exit
// code. Stdin is empty, so xkeyword given no keywords cannot hang.
func run(t *testing.T, bin string, args ...string) (string, string, int) {
	t.Helper()
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
	t.Fatalf("%s %v: %v", bin, args, err)
	return "", "", 0
}

// objectIDs matches the target-object ids in xkeyword's result trees
// ("order#751"), which depend on load order; timings are the other part
// of the output that may differ between two loads of the same data.
var (
	objectIDs = regexp.MustCompile(`#[0-9]+`)
	timings   = regexp.MustCompile(` in [0-9.]+[µnm]?s\b`)
)

// TestTPCHDocumentAnswers: the TPC-H document xkgen writes loads into
// xkeyword -in and answers a query exactly as the built-in data it was
// generated from (the same seed), up to object ids.
func TestTPCHDocumentAnswers(t *testing.T) {
	dir := t.TempDir()
	xkgen, xkeyword := build(t, dir, ".", "xkgen"), build(t, dir, "../xkeyword", "xkeyword")
	doc := filepath.Join(dir, "tpch.xml")
	if _, stderr, code := run(t, xkgen, "-schema", "tpch", "-o", doc); code != 0 {
		t.Fatalf("xkgen exit %d: %s", code, stderr)
	}
	fromDoc, stderr, code := run(t, xkeyword, "-schema", "tpch", "-in", doc, "john", "vcr")
	if code != 0 {
		t.Fatalf("xkeyword -in exit %d: %s", code, stderr)
	}
	builtin, stderr, code := run(t, xkeyword, "-schema", "tpch", "john", "vcr")
	if code != 0 {
		t.Fatalf("xkeyword exit %d: %s", code, stderr)
	}
	if !strings.HasPrefix(fromDoc, "10 results in ") {
		t.Fatalf("xkeyword -in answered:\n%s", fromDoc)
	}
	norm := func(s string) string { return timings.ReplaceAllString(objectIDs.ReplaceAllString(s, "#"), "") }
	if norm(fromDoc) != norm(builtin) {
		t.Fatalf("the generated document answers differently from the built-in data:\n%s\nbuilt-in:\n%s", fromDoc, builtin)
	}
}

// TestCitationPairLoads: xkgen -schema citation -o base writes the
// nodes/edges pair the edge-list source reads.
func TestCitationPairLoads(t *testing.T) {
	dir := t.TempDir()
	xkgen := build(t, dir, ".", "xkgen")
	base := filepath.Join(dir, "cites")
	if _, stderr, code := run(t, xkgen, "-schema", "citation", "-o", base); code != 0 {
		t.Fatalf("xkgen exit %d: %s", code, stderr)
	}
	ds, err := edgelist.Open(base+".nodes.csv", base+".edges.csv", edgelist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if data := ds.Data; data.NumNodes() == 0 || data.NumEdges() == 0 {
		t.Fatalf("loaded %d nodes, %d edges", data.NumNodes(), data.NumEdges())
	}
}

// TestBadScale: a scale below one is a usage error.
func TestBadScale(t *testing.T) {
	xkgen := build(t, t.TempDir(), ".", "xkgen")
	if _, stderr, code := run(t, xkgen, "-scale", "0"); code != 1 || !strings.Contains(stderr, "scale") {
		t.Fatalf("-scale 0: exit %d, stderr %q", code, stderr)
	}
}
