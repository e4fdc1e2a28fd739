package main

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/edgelist"
	"repro/internal/graphsource"
	"repro/internal/webdemo"
	"repro/internal/xmlexport"
	"repro/internal/xmlgraph"
)

// server is one xkserve child process.
type server struct {
	cmd    *exec.Cmd
	base   string
	stderr *syncBuffer
	done   chan struct{} // closed once Wait returned
	err    error         // Wait's result, valid after done
}

// start runs xkserve with args on a free loopback port and waits until
// it answers /healthz. The child is killed and waited for in t.Cleanup
// whether or not the test stopped it.
func start(t *testing.T, args ...string) *server {
	t.Helper()
	addr := freeAddr(t)
	s := &server{base: "http://" + addr, stderr: &syncBuffer{}, done: make(chan struct{})}
	s.cmd = exec.Command(binary(t), append(args, "-addr", addr)...)
	s.cmd.Stderr = s.stderr
	if err := s.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.done)
	}()
	t.Cleanup(func() {
		s.cmd.Process.Kill()
		<-s.done
	})
	for deadline := time.Now().Add(60 * time.Second); ; {
		if resp, err := http.Get(s.base + "/healthz"); err == nil {
			resp.Body.Close()
			return s
		}
		select {
		case <-s.done:
			t.Fatalf("xkserve %v exited before listening (%v):\n%s", args, s.err, s.stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("xkserve %v did not start listening:\n%s", args, s.stderr.String())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// stop sends SIGTERM and requires a clean exit within the drain period.
func (s *server) stop(t *testing.T) {
	t.Helper()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-s.done:
		if s.err != nil {
			t.Fatalf("xkserve exited with %v:\n%s", s.err, s.stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("xkserve did not exit on SIGTERM:\n%s", s.stderr.String())
	}
}

// answersLikeDemo requires every query's /api/query body from the
// process to equal, byte for byte, what an in-process webdemo server
// over ref answers, and ref to find at least one result for each.
func answersLikeDemo(t *testing.T, base string, ref *core.System, queries ...[]string) {
	t.Helper()
	demo := webdemo.NewServer(ref).Handler()
	for _, kws := range queries {
		rs, _, err := ref.QueryScoredContext(context.Background(), kws, 10, "")
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) == 0 {
			t.Fatalf("%v: no results in the reference system, nothing is compared", kws)
		}
		path := "/api/query?q=" + strings.Join(kws, "+")
		code, body := get(t, base+path)
		if code != http.StatusOK {
			t.Fatalf("%s: %d %s", path, code, body)
		}
		rec := httptest.NewRecorder()
		demo.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if want := rec.Body.Bytes(); !bytes.Equal(body, want) {
			t.Fatalf("%s: served body differs from the in-process demo:\n%s\nwant\n%s", path, body, want)
		}
	}
}

func loadSource(t *testing.T, src graphsource.Source) *core.System {
	t.Helper()
	sys, err := graphsource.Load(src, core.Options{Z: 8})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// builtinTPCH is the reference for `-schema tpch` without -in: the
// generated TPC-H data.
func builtinTPCH(t *testing.T) *core.System {
	t.Helper()
	ds, err := datagen.TPCH(datagen.DefaultTPCHParams())
	if err != nil {
		t.Fatal(err)
	}
	return loadSource(t, graphsource.FromXML("tpch", ds.Schema, datagen.TPCHSpec(), ds.Data))
}

// writeCitation writes the default synthetic citation network as an
// edge-list pair and returns the two paths and the system loaded from
// them.
func writeCitation(t *testing.T) (nodes, edges string, ref *core.System) {
	t.Helper()
	nb, eb, err := datagen.CitationCSV(datagen.DefaultCitationParams())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	nodes, edges = filepath.Join(dir, "cite.nodes.csv"), filepath.Join(dir, "cite.edges.csv")
	if err := os.WriteFile(nodes, nb, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(edges, eb, 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := edgelist.Open(nodes, edges, edgelist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return nodes, edges, loadSource(t, ds)
}

var tpchQueries = [][]string{{"john", "vcr"}, {"us", "tv"}}

// TestServeBuiltinSchema: -schema tpch serves the generated data, and
// exits 0 on SIGTERM.
func TestServeBuiltinSchema(t *testing.T) {
	s := start(t, "-schema", "tpch")
	answersLikeDemo(t, s.base, builtinTPCH(t), tpchQueries...)
	s.stop(t)
}

// TestServeXMLFile: -in serves an XML document under the built-in
// schema.
func TestServeXMLFile(t *testing.T) {
	ds, err := datagen.TPCHFigure1()
	if err != nil {
		t.Fatal(err)
	}
	var doc bytes.Buffer
	if err := xmlexport.Write(&doc, ds.Data, "db"); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fig1.xml")
	if err := os.WriteFile(path, doc.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := xmlgraph.ParseString(doc.String(), xmlgraph.ParseOptions{OmitRoot: true})
	if err != nil {
		t.Fatal(err)
	}
	ref := loadSource(t, graphsource.FromXML(path, datagen.TPCHSchema(), datagen.TPCHSpec(), data))

	s := start(t, "-schema", "tpch", "-in", path)
	answersLikeDemo(t, s.base, ref, []string{"john", "vcr"}, []string{"us"})
	s.stop(t)
}

// TestServeEdgeList: -nodes/-edges serve a generic edge-list source.
func TestServeEdgeList(t *testing.T) {
	nodes, edges, ref := writeCitation(t)
	s := start(t, "-nodes", nodes, "-edges", edges)
	answersLikeDemo(t, s.base, ref, []string{"alice", "icde"}, []string{"alice"})
	s.stop(t)
}

// TestServeBuiltDiskIndex: -disk-index without -load pages the index it
// just built from disk, and answers as the in-memory system does.
func TestServeBuiltDiskIndex(t *testing.T) {
	s := start(t, "-schema", "tpch", "-disk-index")
	answersLikeDemo(t, s.base, builtinTPCH(t), tpchQueries...)
	s.stop(t)
	if out := s.stderr.String(); !strings.Contains(out, "master index on disk") {
		t.Fatalf("no disk-index line on stderr:\n%s", out)
	}
}

// TestServeInputErrors: inputs the loader rejects exit non-zero with a
// message, before listening.
func TestServeInputErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-schema", "nosuch"}, `unknown schema "nosuch"`},
		{[]string{"-nodes", "x.nodes.csv"}, "-nodes and -edges must be given together"},
	} {
		cmd := exec.Command(binary(t), append(tc.args, "-addr", freeAddr(t))...)
		out, err := cmd.CombinedOutput()
		var exitErr *exec.ExitError
		if !errors.As(err, &exitErr) || exitErr.ExitCode() == 0 {
			t.Fatalf("%v: exit %v, want non-zero\n%s", tc.args, err, out)
		}
		if !strings.Contains(string(out), tc.want) {
			t.Fatalf("%v: output does not say %q:\n%s", tc.args, tc.want, out)
		}
	}
}

// TestFlagsGolden pins the command's settable values: the -h listing
// must equal testdata/flags.golden (its first line, which names the
// binary's path, aside).
func TestFlagsGolden(t *testing.T) {
	out, err := exec.Command(binary(t), "-h").CombinedOutput()
	if err != nil {
		t.Fatalf("-h: %v\n%s", err, out)
	}
	_, got, _ := strings.Cut(string(out), "\n")
	want, err := os.ReadFile(filepath.Join("testdata", "flags.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("-h drifted from testdata/flags.golden\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
