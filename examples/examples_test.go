// Package examples holds the process test of the example programs: each
// is built once, run, and its standard output compared byte for byte
// with testdata/<name>.golden. The examples are deterministic (fixed
// datagen seeds), so a change to their output is a change to what the
// library answers or renders. Regenerate the goldens with
//
//	go test ./examples/ -update
package examples

import (
	"bytes"
	"context"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the programs' output")

// programs are the example directories, each a main package.
var programs = []string{"custom", "dblp", "navigation", "quickstart", "tpch"}

func TestExamplesMatchGoldens(t *testing.T) {
	dir := t.TempDir()
	gobin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(gobin); err != nil {
		if gobin, err = exec.LookPath("go"); err != nil {
			t.Fatalf("no go tool: %v", err)
		}
	}
	args := []string{"build", "-o", dir + string(filepath.Separator)}
	for _, p := range programs {
		args = append(args, "./"+p)
	}
	if out, err := exec.Command(gobin, args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, p := range programs {
		t.Run(p, func(t *testing.T) {
			got := runProgram(t, filepath.Join(dir, p))
			golden := filepath.Join("testdata", p+".golden")
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s output differs from %s:\n--- got\n%s\n--- want\n%s", p, golden, got, want)
			}
		})
	}
}

// runProgram runs bin with no arguments and returns its stdout. The
// child is killed at a two-minute deadline, and killed and waited for
// in t.Cleanup, so a failing or hung program never outlives the test.
func runProgram(t *testing.T, bin string) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	cmd := exec.CommandContext(ctx, bin)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Start(); err != nil {
		cancel()
		t.Fatalf("start %s: %v", bin, err)
	}
	var waitErr error
	exited := make(chan struct{})
	go func() {
		waitErr = cmd.Wait()
		close(exited)
	}()
	t.Cleanup(func() {
		cancel()
		<-exited
	})
	<-exited
	if waitErr != nil {
		t.Fatalf("%s: %v\n%s", bin, waitErr, stderr.Bytes())
	}
	return stdout.Bytes()
}
