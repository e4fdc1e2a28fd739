package main

import (
	"context"
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
	"strconv"
	"strings"
	"syscall"
	"time"
)

// target is a topology under load: the front server's URL and, when the
// servers are child processes, the handles to account for and kill them.
type target struct {
	url   string
	procs []*proc
	stop  []func() // in-process servers and stores
}

// proc is one xkserve child process.
type proc struct {
	cmd  *exec.Cmd
	bin  string
	args []string
	log  string
	url  string
}

// freeAddr asks the kernel for an unused loopback port. The port is
// released before the child binds it, so another process could take it
// in between; the child then fails to start and the run fails loudly.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startProc starts xkserve on a free port, its stderr kept in dir.
func startProc(bin, dir, name string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	p := &proc{bin: bin, args: append([]string{"-addr", addr}, args...), log: filepath.Join(dir, name+".stderr"), url: "http://" + addr}
	return p, p.start()
}

func (p *proc) start() error {
	logf, err := os.OpenFile(p.log, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close() // the child holds its own descriptor
	p.cmd = exec.Command(p.bin, p.args...)
	p.cmd.Stderr = logf
	// A harness killed outright must not leave servers behind.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return p.cmd.Start()
}

// kill sends SIGKILL and reaps the child.
func (p *proc) kill() {
	if p.cmd == nil || p.cmd.Process == nil {
		return
	}
	_ = p.cmd.Process.Kill() // already exited is fine
	_ = p.cmd.Wait()         // the exit status of a killed child carries nothing
	p.cmd = nil
}

// waitHealthy polls /healthz until it reports ok.
func waitHealthy(ctx context.Context, url string) error {
	hc := &http.Client{Timeout: time.Second}
	var last error
	for ctx.Err() == nil {
		var body struct{ Status string }
		if last = getJSON(hc, url+"/healthz", &body); last == nil && body.Status == "ok" {
			return nil
		} else if last == nil {
			last = fmt.Errorf("status %q", body.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s never became healthy: %v", url, last)
}

func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body) // drained only so the connection is reused
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// procTicksPerSecond is USER_HZ, which Linux fixes at 100 on every
// architecture Go runs on.
const procTicksPerSecond = 100

// cpu is the utime+stime of the live child processes.
func (t *target) cpu() time.Duration {
	var total time.Duration
	for _, p := range t.procs {
		if p.cmd == nil {
			continue
		}
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
		if err != nil {
			continue
		}
		// The fields after the parenthesised command name start at index 3.
		f := strings.Fields(string(raw[strings.LastIndexByte(string(raw), ')')+1:]))
		if len(f) < 13 {
			continue
		}
		ut, _ := strconv.ParseInt(f[11], 10, 64)
		st, _ := strconv.ParseInt(f[12], 10, 64)
		total += time.Duration(ut+st) * time.Second / procTicksPerSecond
	}
	return total
}

// rssMB is the summed peak resident set (VmHWM) of the child processes;
// for in-process servers, the harness's own heap.
func (t *target) rssMB() float64 {
	if len(t.procs) == 0 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.Sys) / (1 << 20)
	}
	total := 0.0
	for _, p := range t.procs {
		if p.cmd == nil {
			continue
		}
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(raw), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				kb, _ := strconv.ParseFloat(f[1], 64)
				total += kb / 1024
			}
		}
	}
	return total
}

func (t *target) close() {
	for _, p := range t.procs {
		p.kill()
	}
	for i := len(t.stop) - 1; i >= 0; i-- {
		t.stop[i]()
	}
}

// keepLogs copies the servers' stderr to outDir after a failed run.
func (t *target) keepLogs(outDir string) {
	for _, p := range t.procs {
		raw, err := os.ReadFile(p.log)
		if err != nil || os.MkdirAll(outDir, 0o755) != nil {
			continue
		}
		_ = os.WriteFile(filepath.Join(outDir, filepath.Base(p.log)), raw, 0o644) // best effort: the run has already failed
	}
}

// bringUp starts a workload's topology and returns once every server
// answers /healthz: child processes of the xkserve binary, or — with no
// binary (-quick, tests) — the same servers in this process.
func bringUp(ctx context.Context, e *env, w *workload, c *corpus, dir string) (*target, error) {
	segDir := filepath.Join(dir, "seg")
	if e.xkserve == "" {
		ip, err := buildInProc(w, c, segDir, nil)
		if err != nil {
			return nil, err
		}
		srv := httptest.NewServer(ip.handler)
		return &target{url: srv.URL, stop: []func(){ip.close, srv.Close}}, nil
	}
	t := &target{}
	start := func(name string, args ...string) (*proc, error) {
		p, err := startProc(e.xkserve, dir, name, args...)
		if p != nil {
			t.procs = append(t.procs, p)
		}
		return p, err
	}
	front := []string{"-load", c.snap}
	if w.disk {
		front = append(front, "-disk-index", "-index-cache-bytes", strconv.Itoa(indexCacheBytes), "-segdir", segDir)
	}
	if w.shards > 0 {
		var urls []string
		for i := 0; i < w.shards; i++ {
			p, err := start(fmt.Sprintf("shard%d", i), "-sharddir", c.shardDir, "-shard-of", strconv.Itoa(i))
			if err != nil {
				t.close()
				return nil, err
			}
			urls = append(urls, p.url)
		}
		// The coordinator validates its shards at start-up, so they must
		// be serving first.
		for _, u := range urls {
			if err := waitHealthy(ctx, u); err != nil {
				t.close()
				return nil, err
			}
		}
		front = append(front, "-sharddir", c.shardDir, "-shards", strings.Join(urls, ","))
	}
	p, err := start("front", front...)
	if err == nil {
		err = waitHealthy(ctx, p.url)
	}
	if err != nil {
		t.close()
		return nil, err
	}
	t.url = p.url
	return t, nil
}

// crashFront kills the front server with SIGKILL and starts it again
// over the same directories and port.
func (t *target) crashFront(ctx context.Context) error {
	front := t.procs[len(t.procs)-1]
	front.kill()
	if err := front.start(); err != nil {
		return err
	}
	return waitHealthy(ctx, front.url)
}
