package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/kwindex"
	"repro/internal/persist"
	"repro/internal/shard"
	"repro/internal/xmlexport"
)

const (
	// dataSeed and corpusScale fix the corpus: xkgen -schema dblp -seed 7
	// -scale 6. The run's -seed never reaches the data.
	dataSeed    = 7
	corpusScale = 6
	// maxZ is xkserve's default -z.
	maxZ = 8
	// numShards is the shard-2 topology's partition count.
	numShards = 2
)

// corpus is what every workload's servers are started over: the
// generated DBLP data loaded into an in-RAM system (which also answers
// the oracle's questions), saved as a snapshot with its .xki sidecar,
// and split into shard directories.
type corpus struct {
	ds       *datagen.Dataset
	sys      *core.System
	uni      *universe
	snap     string
	shardDir string
	xmlBytes int64

	generate, load, save, split time.Duration
}

// build is the corpus part of setup_s.
func (c *corpus) build() time.Duration { return c.generate + c.load + c.save + c.split }

// buildCorpus generates, loads, saves and splits the corpus into dir.
func buildCorpus(dir string, scale int) (*corpus, error) {
	c := &corpus{snap: filepath.Join(dir, "snap.xkw"), shardDir: filepath.Join(dir, "shards")}
	p := datagen.DefaultDBLPParams()
	p.Seed = dataSeed
	p.PapersPerYear *= scale
	p.Authors *= scale

	t := time.Now()
	ds, err := datagen.DBLP(p)
	if err != nil {
		return nil, err
	}
	c.ds, c.generate = ds, time.Since(t)

	t = time.Now()
	c.sys, err = core.Load(datagen.DBLPSchema(), datagen.DBLPSpec(), ds.Data, core.Options{Z: maxZ})
	if err != nil {
		return nil, err
	}
	c.load = time.Since(t)

	t = time.Now()
	if err := persist.SaveFile(c.snap, c.sys, datagen.DBLPSpec()); err != nil {
		return nil, err
	}
	c.save = time.Since(t)

	t = time.Now()
	if _, err := shard.Split(c.sys.Index.(*kwindex.Index), c.shardDir, numShards, shard.SplitOptions{Snapshot: c.snap}); err != nil {
		return nil, err
	}
	c.split = time.Since(t)

	var n countingWriter
	if err := xmlexport.Write(&n, ds.Data, "db"); err != nil {
		return nil, err
	}
	c.xmlBytes = int64(n)
	c.uni = newUniverse(ds, p.Authors)
	return c, nil
}

type countingWriter int64

func (w *countingWriter) Write(p []byte) (int, error) {
	*w += countingWriter(len(p))
	return len(p), nil
}

// storeRatio is the bytes a topology serves from over the bytes of the
// source XML.
func (c *corpus) storeRatio(w *workload) (float64, error) {
	paths := []string{c.snap}
	if w.disk {
		paths = append(paths, persist.SidecarPath(c.snap))
	}
	if w.shards > 0 {
		paths = append(paths, c.shardDir)
	}
	var total int64
	for _, p := range paths {
		err := filepath.Walk(p, func(_ string, fi os.FileInfo, err error) error {
			if err == nil && fi.Mode().IsRegular() {
				total += fi.Size()
			}
			return err
		})
		if err != nil {
			return 0, fmt.Errorf("sizing %s: %w", p, err)
		}
	}
	return float64(total) / float64(c.xmlBytes), nil
}
