package lint

import (
	"flag"
	"go/build"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the analyzer golden files")

// testdataPackages are the seeded-violation packages: one per
// registered analyzer plus the directive-hygiene package, in name
// order. Each is checked under a synthetic internal/ import path so
// path-scoped analyzers (errdrop) apply, and every analyzer runs over
// every package so the goldens also prove non-interference.
func testdataPackages() []string {
	names := []string{ignoreName}
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	return names
}

// TestAnalyzerGoldens runs the full analyzer suite over each testdata
// package and compares the exact findings (file:line: [name] message)
// against the package's golden file. The seeded files include at least
// two violations and one //xk:ignore suppression per analyzer; a
// suppressed line showing up here is a regression in the directive
// filter.
func TestAnalyzerGoldens(t *testing.T) {
	for _, name := range testdataPackages() {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", name)
			findings, err := CheckDir(dir, "repro/internal/lintcheck/"+name, Analyzers())
			if err != nil {
				t.Fatalf("CheckDir(%s): %v", dir, err)
			}
			var sb strings.Builder
			for _, f := range findings {
				sb.WriteString(f.String())
				sb.WriteByte('\n')
			}
			got := sb.String()
			golden := filepath.Join("testdata", "golden", name+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("reading golden (run `go test ./internal/lint -run Golden -update` after changing testdata): %v", err)
			}
			if got != string(want) {
				t.Errorf("findings mismatch for %s\n--- got ---\n%s--- want ---\n%s", name, got, want)
			}
		})
	}
}

// TestGoldenCoverage asserts each analyzer's golden records at least two
// seeded violations, so a silently dead analyzer cannot hide behind an
// empty-but-matching golden.
func TestGoldenCoverage(t *testing.T) {
	for _, a := range Analyzers() {
		data, err := os.ReadFile(filepath.Join("testdata", "golden", a.Name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(data), "["+a.Name+"]"); n < 2 {
			t.Errorf("golden for %s has %d findings; want >= 2 seeded violations", a.Name, n)
		}
		src, err := os.ReadFile(filepath.Join("testdata", "src", a.Name, a.Name+".go"))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(src), "//xk:ignore "+a.Name+" ") {
			t.Errorf("testdata for %s seeds no //xk:ignore suppression", a.Name)
		}
	}
}

// TestRetryloopCoverage is the one analyzer-specific coverage check on
// top of TestGoldenCoverage: retryloop's golden must record at least
// three findings and show each of its three message variants
// (unbounded, hot, and both).
func TestRetryloopCoverage(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "golden", "retryloop.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "[retryloop]"); n < 3 {
		t.Errorf("golden for retryloop has %d findings; want >= 3 seeded violations", n)
	}
	for _, fragment := range []string{"no attempt bound", "without backoff", "neither an attempt bound nor backoff"} {
		if !strings.Contains(string(data), fragment) {
			t.Errorf("golden for retryloop misses the %q variant", fragment)
		}
	}
}

// TestIgnoreDirectives pins the directive-hygiene contract beyond what
// the golden shows: every malformed directive — including one naming an
// analyzer that has since been removed from the registry — surfaces as
// an unsuppressible [ignore] finding rather than being dropped.
func TestIgnoreDirectives(t *testing.T) {
	findings, err := CheckDir(filepath.Join("testdata", "src", "ignore"), "repro/internal/lintcheck/ignore", Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	wants := []string{
		`unknown analyzer "nosuchcheck"`,
		`unknown analyzer "topkheap"`, // removed analyzer: reported, not dropped
		"needs a reason",
		"one //xk:ignore per line",
	}
	for _, want := range wants {
		found := false
		for _, f := range findings {
			if f.Name != ignoreName || !strings.Contains(f.Msg, want) {
				continue
			}
			found = true
			break
		}
		if !found {
			t.Errorf("no [ignore] finding containing %q; got:\n%v", want, findings)
		}
	}
}

// TestXkvetCleanOnRepo loads the whole module exactly as cmd/xkvet does
// and asserts zero unsuppressed findings: the repo must stay lint-clean.
func TestXkvetCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type-check is slow; skipped in -short mode")
	}
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := CheckModule(root, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("unsuppressed finding: %s", f)
	}
}

// TestStdlibOnlyImports enforces the acceptance criterion that the lint
// subsystem builds on the standard library alone: internal/lint imports
// only stdlib, and cmd/xkvet imports only stdlib plus internal/lint.
func TestStdlibOnlyImports(t *testing.T) {
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := modulePath(root)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		dir     string
		allowed map[string]bool
	}{
		{"internal/lint", nil},
		{"cmd/xkvet", map[string]bool{mod + "/internal/lint": true}},
	}
	for _, c := range cases {
		bp, err := build.Default.ImportDir(filepath.Join(root, c.dir), 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range append(bp.Imports, bp.TestImports...) {
			if c.allowed[imp] {
				continue
			}
			if imp == mod || strings.HasPrefix(imp, mod+"/") {
				t.Errorf("%s imports module package %s; only the standard library is allowed", c.dir, imp)
				continue
			}
			if first := strings.SplitN(imp, "/", 2)[0]; strings.Contains(first, ".") {
				t.Errorf("%s imports non-stdlib package %s", c.dir, imp)
			}
		}
	}
}
