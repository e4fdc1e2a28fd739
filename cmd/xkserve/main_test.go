package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/persist"
	"repro/internal/webdemo"
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
		dir, err := os.MkdirTemp("", "xkserve-test-")
		if err != nil {
			buildErr = err
			return
		}
		binPath = filepath.Join(dir, "xkserve")
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

// freeAddr returns a loopback address with a port nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// syncBuffer collects a child's stderr while the test reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestServeSelfHealedDiskIndex saves the TPC-H Figure 1 snapshot,
// truncates its sidecar and serves it with -disk-index and -segdir: the
// process must heal onto a rebuilt index, report degraded, answer
// byte-identically to the in-process demo, and exit 0 on SIGTERM with
// its final stats line.
func TestServeSelfHealedDiskIndex(t *testing.T) {
	ds, err := datagen.TPCHFigure1()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.LoadPrepared(&core.Prepared{Schema: ds.Schema, TSS: ds.TSS, Data: ds.Data, Obj: ds.Obj}, core.Options{Z: 8})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	snap := filepath.Join(dir, "fig1.xkdb")
	if err := persist.SaveFile(snap, sys, datagen.TPCHSpec()); err != nil {
		t.Fatal(err)
	}
	ref, err := persist.LoadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	side := persist.SidecarPath(snap)
	b, err := os.ReadFile(side)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(side, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	addr := freeAddr(t)
	cmd := exec.Command(binary(t), "-load", snap, "-disk-index", "-segdir", filepath.Join(dir, "seg"), "-addr", addr)
	var stderr syncBuffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	stopped := false
	defer func() {
		if !stopped {
			cmd.Process.Kill()
			<-exited
		}
	}()
	base := "http://" + addr
	for deadline := time.Now().Add(30 * time.Second); ; {
		if resp, err := http.Get(base + "/healthz"); err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("xkserve did not start listening:\n%s", stderr.String())
		}
		time.Sleep(50 * time.Millisecond)
	}

	code, body := get(t, base+"/healthz")
	var hz struct{ Status string }
	if err := json.Unmarshal(body, &hz); err != nil || code != http.StatusOK || hz.Status != "degraded" {
		t.Fatalf("healthz: %d %s, want 200 with status degraded", code, body)
	}

	const q = "/api/query?q=john+vcr"
	code, body = get(t, base+q)
	if code != http.StatusOK {
		t.Fatalf("query: %d %s", code, body)
	}
	rec := httptest.NewRecorder()
	webdemo.NewServer(ref).Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, q, nil))
	if want := rec.Body.Bytes(); !bytes.Equal(body, want) {
		t.Fatalf("served body differs from the in-process demo:\n%s\nwant\n%s", body, want)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		stopped = true
		if err != nil {
			t.Fatalf("xkserve exited with %v:\n%s", err, stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("xkserve did not exit on SIGTERM:\n%s", stderr.String())
	}
	if out := stderr.String(); !strings.Contains(out, "xkserve: served 1 queries") {
		t.Fatalf("no final served line on stderr:\n%s", out)
	}
}
