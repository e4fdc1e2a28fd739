package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/segidx"
	"repro/internal/tss"
)

const (
	// ingestInterval is the writer's fixed pace: 20 batches a second.
	ingestInterval = 50 * time.Millisecond
	// batchDocs is how many existing target objects one batch replaces.
	batchDocs = 4
	// flushEvery makes every 40th batch (one every two seconds) ask for a
	// flush, so that a run of a few seconds sees segments written and, at
	// the eighth, a compaction. xkserve's own trigger is the memtable
	// reaching 4 MiB, which this write rate would take minutes to reach.
	flushEvery = 40
)

// ingester is disk-ingest's single writer. Batch b replaces batchDocs
// papers, each with " xkm<b>" appended to its title, then queries the
// marker: an acknowledged write must be readable at once, and — checked
// by verifyAll after the server was killed — after a restart too.
type ingester struct {
	c      *client
	papers []segidx.Document
	order  []int // seeded permutation of papers; batches walk it
	latest []int // per paper, the last batch that rewrote it (-1: none)
	acked  []int // batches the server acknowledged

	lat               []float64 // ms from when the batch was due to its ack
	attempted, failed int
	next              int
}

func newIngester(base string, og *tss.ObjectGraph, seed uint64) *ingester {
	g := &ingester{c: newClient(base)}
	for _, d := range segidx.DocumentsFromObjectGraph(og) {
		for _, f := range d.Fields {
			if f.SchemaNode == "title" {
				g.papers = append(g.papers, d)
				break
			}
		}
	}
	g.order = make([]int, len(g.papers))
	g.latest = make([]int, len(g.papers))
	for i := range g.order {
		g.order[i], g.latest[i] = i, -1
	}
	for i := len(g.order) - 1; i > 0; i-- { // Fisher–Yates
		j := int(draw(seed, streamIngest, uint64(i)) % uint64(i+1))
		g.order[i], g.order[j] = g.order[j], g.order[i]
	}
	return g
}

func marker(b int) string { return fmt.Sprintf("%s%06d", markerPrefix, b) }

func (g *ingester) members(b int) []int {
	out := make([]int, batchDocs)
	for d := range out {
		out[d] = g.order[(b*batchDocs+d)%len(g.order)]
	}
	return out
}

// rewritten is paper p as batch b writes it.
func (g *ingester) rewritten(p, b int) segidx.Document {
	d := g.papers[p]
	d.Fields = append([]segidx.Field(nil), d.Fields...)
	for i := range d.Fields {
		if d.Fields[i].SchemaNode == "title" {
			d.Fields[i].Value += " " + marker(b)
		}
	}
	return d
}

// batch builds batch b and the JSON body /api/ingest takes for it.
func (g *ingester) batch(b int) (segidx.Batch, []byte) {
	var batch segidx.Batch
	var add []segidx.Document
	for _, p := range g.members(b) {
		d := g.rewritten(p, b)
		batch.AddDoc(d)
		add = append(add, d)
	}
	body, err := json.Marshal(map[string]any{"add": add, "flush": b%flushEvery == flushEvery-1})
	if err != nil {
		panic(err) // plain structs of strings and integers always marshal
	}
	return batch, body
}

// send posts the next batch, due at the given time, and checks that its
// marker can be read back.
func (g *ingester) send(ctx context.Context, due time.Time) {
	b := g.next
	g.next++
	_, body := g.batch(b)
	g.attempted++
	status, _, err := g.c.do(ctx, http.MethodPost, "/api/ingest", body)
	if err != nil || status != http.StatusOK {
		g.failed++
		return
	}
	g.lat = append(g.lat, ms(time.Since(due)))
	g.acked = append(g.acked, b)
	for _, p := range g.members(b) {
		g.latest[p] = b
	}
	g.attempted++
	if !g.readable(ctx, b) {
		g.failed++
	}
}

// readable queries batch b's marker and compares the answer with the
// papers that still carry it.
func (g *ingester) readable(ctx context.Context, b int) bool {
	var want []string
	for _, p := range g.members(b) {
		if g.latest[p] == b {
			d := g.rewritten(p, b)
			want = append(want, d.Summary())
		}
	}
	status, body, err := g.c.do(ctx, http.MethodGet, "/api/query?q="+marker(b)+"&k=10", nil)
	if err != nil || status != http.StatusOK {
		return false
	}
	var resp struct{ Results []struct{ Objects []string } }
	if json.Unmarshal(body, &resp) != nil {
		return false
	}
	var got []string
	for _, r := range resp.Results {
		got = append(got, strings.Join(r.Objects, "|"))
	}
	sort.Strings(want)
	sort.Strings(got)
	return strings.Join(got, "\n") == strings.Join(want, "\n")
}

// run writes at the fixed pace until stop is closed.
func (g *ingester) run(ctx context.Context, stop <-chan struct{}) {
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * ingestInterval)
		select {
		case <-stop:
			return
		case <-ctx.Done():
			return
		case <-time.After(time.Until(due)):
		}
		g.send(ctx, due)
	}
}

// verifyAll checks every acknowledged batch again (after a restart) and
// returns how many were checked and how many could not be read.
func (g *ingester) verifyAll(ctx context.Context) (checked, lost int) {
	for _, b := range g.acked {
		checked++
		if !g.readable(ctx, b) {
			lost++
		}
	}
	return checked, lost
}
