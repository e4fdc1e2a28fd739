package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// requestTimeout bounds one request; a request that exceeds it failed.
const requestTimeout = 5 * time.Second

// drainGrace is how long after a rung's end its queued arrivals may still
// be sent. An arrival still waiting then is counted as failed: the server
// was that far behind.
const drainGrace = 2 * time.Second

// client is one connection to the front server: requests on it are sent
// one after another, and its transport keeps a single connection alive.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout:   requestTimeout,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}}
}

// do sends one request. The returned body is valid until the next call.
func (c *client) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// checker decides whether a response is the right answer.
type checker struct {
	orc   *oracle
	strip bool // the workload rewrites titles: strip the markers first
}

func (k *checker) ok(id, status int, body []byte) bool {
	if status != http.StatusOK {
		return false
	}
	if k.strip {
		body = stripMarkers(body)
	}
	return bodyHash(body) == k.orc.expect(id)
}

// phase is what one timed part of a run measured.
type phase struct {
	lat       []float64 // ms, correct responses only
	late      []float64 // ms the generator woke after an arrival was due
	attempted int
	failed    int
	wall      time.Duration
	cpu       time.Duration // of the servers, over a closed-loop part
	// backlogMid and backlogEnd are the arrivals due but not yet sent
	// half-way through and at the end of an open-loop rung.
	backlogMid, backlogEnd int
}

func (p *phase) merge(o *phase) {
	p.lat = append(p.lat, o.lat...)
	p.late = append(p.late, o.late...)
	p.attempted += o.attempted
	p.failed += o.failed
}

// growing reports a backlog that the rung's second half added to, beyond
// what the connections can hold in flight.
func (p *phase) growing(clients int) bool {
	return p.backlogEnd > p.backlogMid && p.backlogEnd > 2*clients
}

// generator drives the readers of one target.
type generator struct {
	clients []*client
	uni     *universe
	chk     *checker
	cpu     func() time.Duration
}

// request sends query id on c and reports whether the answer was right.
func (g *generator) request(ctx context.Context, c *client, id int) bool {
	status, body, err := c.do(ctx, http.MethodGet, g.uni.query(id).path(), nil)
	return err == nil && g.chk.ok(id, status, body)
}

// open runs an open-loop rung: arrival i is due at start+due[i] whatever
// the server does, and its latency counts from then — so one that finds
// every connection busy waits in the generator and the wait is part of
// its latency. Each connection takes the next arrival, sleeps until it is
// due, and sends it.
func (g *generator) open(ctx context.Context, due []time.Duration, dur time.Duration, id func(i int) int) *phase {
	total := &phase{wall: dur}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range g.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			p := &phase{}
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(due) {
					break
				}
				at := start.Add(due[i])
				if d := time.Until(at); d > 0 {
					time.Sleep(d)
					p.late = append(p.late, ms(time.Since(at)))
				}
				p.attempted++
				if time.Since(start) > dur+drainGrace || !g.request(ctx, c, id(i)) {
					p.failed++
					continue
				}
				p.lat = append(p.lat, ms(time.Since(at)))
			}
			mu.Lock()
			total.merge(p)
			mu.Unlock()
		}(c)
	}
	backlog := func() int {
		arrived := sort.Search(len(due), func(i int) bool { return due[i] > time.Since(start) })
		if b := arrived - int(next.Load()); b > 0 {
			return b
		}
		return 0
	}
	sleepCtx(ctx, dur/2)
	total.backlogMid = backlog()
	sleepCtx(ctx, time.Until(start.Add(dur)))
	total.backlogEnd = backlog()
	wg.Wait()
	return total
}

// closed runs a closed loop: every connection sends its next request as
// soon as the previous one is answered, for dur or, with limit > 0, until
// that many requests were sent.
func (g *generator) closed(ctx context.Context, dur time.Duration, limit int, id func(i int) int) *phase {
	total := &phase{}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	cpu0 := g.cpu()
	start := time.Now()
	for _, c := range g.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			p := &phase{}
			for ctx.Err() == nil && time.Since(start) < dur {
				i := int(next.Add(1)) - 1
				if limit > 0 && i >= limit {
					break
				}
				t := time.Now()
				p.attempted++
				if !g.request(ctx, c, id(i)) {
					p.failed++
					continue
				}
				p.lat = append(p.lat, ms(time.Since(t)))
			}
			mu.Lock()
			total.merge(p)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	total.wall = time.Since(start)
	total.cpu = g.cpu() - cpu0
	return total
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
