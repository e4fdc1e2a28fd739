package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/diskindex"
	"repro/internal/kwindex"
	"repro/internal/persist"
	"repro/internal/qserve"
	"repro/internal/segidx"
	"repro/internal/shard"
	"repro/internal/webdemo"
)

// indexCacheBytes is disk-ingest's -index-cache-bytes: 8 pages of 4 KiB
// against an .xki of about 170 KB, so the index is about five times its
// buffer pool.
const indexCacheBytes = 32768

// inproc is a workload's topology assembled in this process the way
// cmd/xkserve assembles it from flags — for the traced replay, where the
// layers' boundaries are wrapped, and for -quick, where they are not.
type inproc struct {
	handler http.Handler
	sys     *core.System // the front server's system
	nodes   []*core.System
	load    time.Duration // persist.LoadFileOpts of the front system

	// Set by the decorators when tr is given.
	engine  qserve.Engine
	web     *tracedHandler
	source  *tracedSource
	shards  []*tracedHandler
	results atomic.Int64 // results the engine returned

	reader *diskindex.Reader // disk-ingest: the master index's pages
	store  *segidx.Store     // disk-ingest: the live index
	coord  *shard.Coordinator
	stop   []func()
}

func (ip *inproc) close() {
	for i := len(ip.stop) - 1; i >= 0; i-- {
		ip.stop[i]()
	}
}

func loadSnapshot(path string, disk bool) (*core.System, error) {
	return persist.LoadFileOpts(path, persist.LoadOptions{DiskIndex: disk, IndexCacheBytes: indexCacheBytes, SelfHeal: true})
}

func buildInProc(w *workload, c *corpus, segDir string, tr *tracer) (_ *inproc, err error) {
	ip := &inproc{}
	defer func() {
		if err != nil {
			ip.close()
		}
	}()
	t := time.Now()
	if ip.sys, err = loadSnapshot(c.snap, w.disk); err != nil {
		return nil, err
	}
	ip.load = time.Since(t)
	ip.nodes = []*core.System{ip.sys}

	if w.disk {
		if fo, ok := ip.sys.Index.(*kwindex.Failover); ok {
			ip.reader, _ = fo.Primary().(*diskindex.Reader)
		}
		ip.store, err = segidx.Open(segDir, segidx.Options{Base: ip.sys.Index, IndexCacheBytes: indexCacheBytes, AutoCompact: true})
		if err != nil {
			return nil, err
		}
		ip.stop = append(ip.stop, func() { _ = ip.store.Close() }) // nothing to report a close error to
		ip.sys.Index = ip.store
	}

	var eng qserve.Engine = ip.sys
	if w.shards > 0 {
		man, err := shard.LoadManifest(c.shardDir)
		if err != nil {
			return nil, err
		}
		var urls []string
		for i, si := range man.Shards {
			sys, err := loadSnapshot(filepath.Join(c.shardDir, si.Dir, shard.SnapshotFileName), false)
			if err != nil {
				return nil, err
			}
			rd, err := diskindex.Open(filepath.Join(c.shardDir, si.Dir, si.Index), diskindex.Options{})
			if err != nil {
				return nil, err
			}
			ip.stop = append(ip.stop, func() { _ = rd.Close() }) // read-only file
			i := i
			local := kwindex.NewFailover(rd, func() (kwindex.Source, error) {
				return shard.PartitionIndex(kwindex.Build(sys.Obj), i, man.N), nil
			}, nil)
			sys.Index = local
			srv := &shard.Server{Sys: sys, Local: local, ID: i, N: man.N, CRC: si.CRC,
				Cache: qserve.NewResultCache(0, 1024, 32<<20, 5*time.Minute)}
			h := srv.Handler()
			if tr != nil {
				th := &tracedHandler{next: h, tr: tr, name: shardSpanName, seen: map[string]*wireCount{}}
				ip.shards = append(ip.shards, th)
				h = th
			}
			ts := httptest.NewServer(h)
			ip.stop = append(ip.stop, ts.Close)
			urls = append(urls, ts.URL)
			ip.nodes = append(ip.nodes, sys)
		}
		groups := make([][]string, len(urls))
		for i, u := range urls {
			groups[i] = []string{u}
		}
		ip.coord = shard.NewCoordinatorGroups(ip.sys, groups, shard.CoordinatorOptions{Manifest: man, Logf: func(string, ...any) {}})
		eng = ip.coord
	}

	if tr != nil {
		if ip.coord != nil {
			eng = &tracedCoordinator{ip.coord, tr, &ip.results}
		} else {
			ip.source = &tracedSource{Source: ip.sys.Index, tr: tr}
			eng = &tracedSystem{ip.sys, ip.source, tr, &ip.results}
		}
		ip.engine = eng
	}
	wd := webdemo.NewServerWith(ip.sys, qserve.New(eng, qserve.Options{Logf: func(string, ...any) {}}))
	if ip.store != nil {
		wd.EnableIngest(ip.store)
	}
	ip.handler = wd.Handler()
	if tr != nil {
		ip.web = &tracedHandler{next: ip.handler, tr: tr, root: true, seen: map[string]*wireCount{},
			name: func(r *http.Request) string {
				if r.URL.Path == "/api/ingest" {
					return "ingest"
				}
				return "webdemo"
			}}
		ip.handler = ip.web
	}
	if ip.coord == nil {
		return ip, nil
	}
	// As cmd/xkserve does before taking traffic.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ip.coord.Validate(ctx); err != nil {
		return nil, fmt.Errorf("coordinator validation: %w", err)
	}
	return ip, nil
}
