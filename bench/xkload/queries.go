package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/datagen"
	"repro/internal/kwindex"
)

// query is one /api/query request. Keywords are kept in lexicographic
// order: qserve's cache key sorts them, so "a b" may be answered from
// the entry "b a" filled, and the expected answer must not depend on
// which of the two a run happened to send first.
type query struct {
	a, b string
	k    int
}

func (q query) path() string { return fmt.Sprintf("/api/query?q=%s+%s&k=%d", q.a, q.b, q.k) }

// topKs are the result bounds of the title-word + author template.
var topKs = [...]int{10, 20, 50}

// universe is every query the mixes can draw, densely numbered so that
// expected answers fit a table: first the unordered author pairs
// (k=10), then title word × author × topKs.
type universe struct {
	authors []string // the token unique to each author ("chen10")
	words   []string // the title vocabulary, sorted
	pairs   int
}

func newUniverse(ds *datagen.Dataset, authors int) *universe {
	u := &universe{}
	for i := 0; i < authors; i++ {
		toks := kwindex.Tokenize(datagen.AuthorName(i))
		u.authors = append(u.authors, toks[len(toks)-1])
	}
	seen := map[string]bool{}
	for _, id := range ds.Data.Nodes() {
		if n := ds.Data.Node(id); n.Type == "title" {
			for _, t := range kwindex.Tokenize(n.Value) {
				if !seen[t] {
					seen[t] = true
					u.words = append(u.words, t)
				}
			}
		}
	}
	sort.Strings(u.words)
	n := len(u.authors)
	u.pairs = n * (n - 1) / 2
	return u
}

func (u *universe) size() int { return u.pairs + len(u.words)*len(u.authors)*len(topKs) }

// pairID numbers the unordered author pair {i, j}, i != j.
func (u *universe) pairID(i, j int) int {
	if i > j {
		i, j = j, i
	}
	n := len(u.authors)
	return i*(2*n-i-1)/2 + (j - i - 1)
}

func (u *universe) titleID(word, author, ki int) int {
	return u.pairs + (word*len(u.authors)+author)*len(topKs) + ki
}

// query decodes an id; it is the inverse of pairID and titleID.
func (u *universe) query(id int) query {
	var a, b string
	k := 10
	if id < u.pairs {
		n := len(u.authors)
		i := 0
		for row := n - 1; id >= row; row-- {
			id -= row
			i++
		}
		a, b = u.authors[i], u.authors[i+1+id]
	} else {
		id -= u.pairs
		k = topKs[id%len(topKs)]
		id /= len(topKs)
		a, b = u.words[id/len(u.authors)], u.authors[id%len(u.authors)]
	}
	if a > b {
		a, b = b, a
	}
	return query{a, b, k}
}

// splitmix is the splitmix64 finalizer: the harness's only source of
// randomness. Every draw is a pure function of (seed, stream, index), so
// workers need no shared generator and a request's inputs do not depend
// on which worker sent it or when.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func draw(seed, stream, i uint64) uint64 {
	return splitmix(splitmix(seed^stream*0xd1342543de82ef95) + i)
}

// unit maps a draw to [0, 1).
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// mix maps a random word to a query id.
type mix interface{ pick(x uint64) int }

// uniformMix is the cache-hostile mix: 70 % author pairs drawn uniformly,
// 30 % title word + author with k from topKs.
type uniformMix struct{ u *universe }

func (m uniformMix) pick(x uint64) int {
	u := m.u
	n := uint64(len(u.authors))
	y, z := splitmix(x), splitmix(x+1)
	if x%10 < 7 {
		i, j := y%n, z%(n-1)
		if j >= i {
			j++
		}
		return u.pairID(int(i), int(j))
	}
	w := splitmix(x + 2)
	return u.titleID(int(y%uint64(len(u.words))), int(z%n), int(w%uint64(len(topKs))))
}

// zipfMix is the cache-friendly mix: a fixed catalogue drawn with
// probability ∝ 1/rank^s.
type zipfMix struct {
	catalogue []int
	cdf       []float64
}

func newZipfMix(base mix, seed uint64, n int, s float64) zipfMix {
	m := zipfMix{catalogue: make([]int, n), cdf: make([]float64, n)}
	total := 0.0
	for r := 0; r < n; r++ {
		m.catalogue[r] = base.pick(draw(seed, streamCatalogue, uint64(r)))
		total += 1 / math.Pow(float64(r+1), s)
		m.cdf[r] = total
	}
	for r := range m.cdf {
		m.cdf[r] /= total
	}
	return m
}

func (m zipfMix) pick(x uint64) int {
	r := sort.SearchFloat64s(m.cdf, unit(x))
	if r >= len(m.catalogue) {
		r = len(m.catalogue) - 1
	}
	return m.catalogue[r]
}

// Streams keep the draws of different purposes independent.
const (
	streamCatalogue = 1 + iota
	streamWarm
	streamArrival
	streamOpen   // + rung index
	streamClosed = 16
	streamIngest = 17
)

// poisson returns the arrival offsets of an open-loop rung: exponential
// gaps at the given rate until dur.
func poisson(seed, stream uint64, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for i := uint64(0); ; i++ {
		t += -math.Log(1-unit(draw(seed, stream, i))) / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}
