package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/qserve"
	"repro/internal/webdemo"
)

// oracle holds the expected answer of every query in the universe: the
// hash of the body the single-node web handler renders when the answer
// comes from core.System.QueryScoredContext over the in-RAM index, in
// this process. A server under test must return that body byte for byte
// (the repo's bar: fail loudly or answer byte-identically to single-node),
// which covers scores, object lists and their order.
//
// An entry costs about as much as the server spends answering the query,
// so a run that computed its own would double the machine's work. With a
// work directory that outlives the run, the table is therefore filled
// once per build (see stored) and looked up afterwards; without one
// (tests, -quick) entries are computed on first use.
type oracle struct {
	uni     *universe
	handler http.Handler
	table   []atomic.Uint64 // 0 = not computed yet
}

func newOracle(sys *core.System, uni *universe) *oracle {
	// The cache is off so that an entry is always a pipeline run.
	qs := qserve.New(sys, qserve.Options{MaxEntries: -1})
	return &oracle{
		uni:     uni,
		handler: webdemo.NewServerWith(sys, qs).Handler(),
		table:   make([]atomic.Uint64, uni.size()),
	}
}

// bodyHash is never 0, so 0 can mean "not computed".
func bodyHash(body []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(body) // a hash write cannot fail
	if v := h.Sum64(); v != 0 {
		return v
	}
	return 1
}

// answer runs one request through a handler in this process.
func answer(h http.Handler, method, path string, body io.Reader) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, body))
	return rec
}

func (o *oracle) expect(id int) uint64 {
	if v := o.table[id].Load(); v != 0 {
		return v
	}
	rec := answer(o.handler, http.MethodGet, o.uni.query(id).path(), nil)
	if rec.Code != http.StatusOK {
		panic(fmt.Sprintf("oracle: %s answered %d: %s", o.uni.query(id).path(), rec.Code, rec.Body))
	}
	v := bodyHash(rec.Body.Bytes())
	o.table[id].Store(v)
	return v
}

// fillAll computes every entry on all cores.
func (o *oracle) fillAll() {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(o.table) {
					return
				}
				o.expect(i)
			}
		}()
	}
	wg.Wait()
}

// stored makes the table complete: it is read from dir if this binary
// stored it there before, and otherwise computed in full and stored. The
// answers depend only on the code, so the file is named by the binary's
// hash and a rebuilt harness computes its own.
func (o *oracle) stored(dir string) error {
	key, err := binaryKey()
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "answers-"+key+".bin")
	if raw, err := os.ReadFile(path); err == nil && len(raw) == 8*len(o.table) {
		for i := range o.table {
			o.table[i].Store(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		return nil
	}
	o.fillAll()
	raw := make([]byte, 8*len(o.table))
	for i := range o.table {
		binary.LittleEndian.PutUint64(raw[8*i:], o.table[i].Load())
	}
	// Renamed into place, so a file that exists is complete.
	if err := os.WriteFile(path+".tmp", raw, 0o644); err != nil {
		return err
	}
	return os.Rename(path+".tmp", path)
}

// binaryKey identifies the code that stored answers came from.
func binaryKey() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8]), nil
}

// markerPrefix starts the unique token the ingest writer appends to a
// title. Appending keeps every original token, so no other query's
// answer changes except that the rewritten summaries carry the marker;
// stripMarkers removes it again before a body is compared.
const markerPrefix = "xkm"

var markerNeedle = []byte(" " + markerPrefix)

func stripMarkers(body []byte) []byte {
	i := bytes.Index(body, markerNeedle)
	if i < 0 {
		return body
	}
	out := make([]byte, 0, len(body))
	for i >= 0 {
		out = append(out, body[:i]...)
		body = body[i+len(markerNeedle):]
		for len(body) > 0 && body[0] >= '0' && body[0] <= '9' {
			body = body[1:]
		}
		i = bytes.Index(body, markerNeedle)
	}
	return append(out, body...)
}
