package core

import (
	"sync/atomic"

	"repro/internal/cn"
	"repro/internal/exec"
	"repro/internal/tss"
)

// SummarySource is the optional index-backend interface behind
// SummaryOf: a live store (internal/segidx) that knows the
// presentation summaries of runtime-ingested target objects.
type SummarySource interface {
	Summary(to int64) (string, bool)
}

// SummaryOf returns a target object's presentation summary, consulting
// the index backend first — a runtime-ingested document's summary wins
// over (and exists beside no) object-graph entry — and falling back to
// the load-stage object graph. All presentation paths go through this,
// so ingested TOs render like native ones instead of as "TO(n)?"
// placeholders.
func (s *System) SummaryOf(to int64) string {
	if src, ok := s.Index.(SummarySource); ok {
		if sum, ok := src.Summary(to); ok {
			return sum
		}
	}
	return s.objectSummary(to)
}

// objectSummary is tss.ObjectGraph.Summary memoised per target object.
// The object graph is immutable after load, so a filled slot never goes
// stale; two goroutines filling one slot store equal strings. Ids the
// object graph does not know get its placeholder, unmemoised.
func (s *System) objectSummary(to int64) string {
	i, ok := s.Obj.Ordinal(to)
	if !ok {
		return s.Obj.Summary(to)
	}
	slot := &s.summaryMemo()[i]
	if sum := slot.Load(); sum != nil {
		return *sum
	}
	sum := s.Obj.Summary(to)
	slot.Store(&sum)
	return sum
}

// summaryMemo returns the per-TO summary slots, indexed by
// ObjectGraph.Ordinal, allocating them on first use rather than at load.
func (s *System) summaryMemo() []atomic.Pointer[string] {
	s.summariesOnce.Do(func() {
		s.summaries = make([]atomic.Pointer[string], s.Obj.NumObjects())
	})
	return s.summaries
}

// RenderResult renders an MTTON as an indented tree of target-object
// summaries with the semantic edge annotations of the TSS graph — the
// result presentation of §3 (e.g. "lineitem —line→ part[key=1005 TV]").
func (s *System) RenderResult(r exec.Result) string {
	return string(s.NewRenderer().AppendResult(nil, r))
}

// ResultSummaries returns the target-object summaries of a result in
// occurrence order, for compact display and tests.
func (s *System) ResultSummaries(r exec.Result) []string {
	out := make([]string, len(r.Bind))
	for i, to := range r.Bind {
		out[i] = s.SummaryOf(to)
	}
	return out
}

// Renderer renders the results of one response. The tree layout of a
// result — edge labels, indentation, «keyword» annotations — depends
// only on its network, so a Renderer lays each network out once and
// splices the results' summaries into it. Not safe for concurrent use.
type Renderer struct {
	s     *System
	trees []*resultTree // one per network seen, usually a handful
}

// NewRenderer returns a Renderer for one batch of results.
func (s *System) NewRenderer() *Renderer { return &Renderer{s: s} }

// AppendResult appends RenderResult(r) to dst.
func (rd *Renderer) AppendResult(dst []byte, r exec.Result) []byte {
	t := rd.tree(r.Net)
	start, prev := len(dst), 0
	for _, sl := range t.slots {
		dst = append(dst, t.text[prev:sl.cut]...)
		dst = append(dst, rd.s.SummaryOf(r.Bind[sl.occ])...)
		prev = sl.cut
	}
	dst = append(dst, t.text[prev:]...)
	for len(dst) > start && dst[len(dst)-1] == '\n' {
		dst = dst[:len(dst)-1]
	}
	return dst
}

func (rd *Renderer) tree(net *cn.TSSNetwork) *resultTree {
	for _, t := range rd.trees {
		if t.net == net {
			return t
		}
	}
	l := treeLayout{tg: rd.s.TSS, t: &resultTree{net: net}, visited: make([]bool, len(net.Occs))}
	l.walk(0, 0)
	l.t.text = string(l.text)
	rd.trees = append(rd.trees, l.t)
	return l.t
}

// resultTree is a network's rendering with the summaries left out: the
// literal text with a cut where each occurrence's summary goes, in walk
// order. A result renders as the text with its summaries spliced in at
// the cuts, trailing newlines trimmed.
type resultTree struct {
	net   *cn.TSSNetwork
	text  string
	slots []treeSlot
}

type treeSlot struct {
	occ int // occurrence whose summary goes here
	cut int // offset into text
}

// treeLayout walks a network depth-first from occurrence 0, children in
// edge order, each behind a line naming the edge in the direction it is
// walked.
type treeLayout struct {
	tg      *tss.Graph
	t       *resultTree
	visited []bool
	text    []byte
}

func (l *treeLayout) walk(v, depth int) {
	net := l.t.net
	l.visited[v] = true
	l.indent(depth)
	if depth > 0 {
		l.text = append(l.text, "└─ "...)
	}
	l.t.slots = append(l.t.slots, treeSlot{occ: v, cut: len(l.text)})
	if kws := net.Occs[v].Keywords; len(kws) > 0 {
		l.text = append(l.text, "  «"...)
		for i, k := range kws {
			if i > 0 {
				l.text = append(l.text, ',')
			}
			l.text = append(l.text, k.Keyword...)
		}
		l.text = append(l.text, "»"...)
	}
	l.text = append(l.text, '\n')
	for _, e := range net.Edges {
		o := e.To
		if e.To == v {
			o = e.From
		} else if e.From != v {
			continue
		}
		if l.visited[o] {
			continue
		}
		l.indent(depth + 1)
		l.text = append(l.text, '(')
		l.text = append(l.text, edgeLabel(l.tg, net, v, o)...)
		l.text = append(l.text, ")\n"...)
		l.walk(o, depth+1)
	}
}

func (l *treeLayout) indent(depth int) {
	for i := 0; i < depth; i++ {
		l.text = append(l.text, "  "...)
	}
}

// edgeLabel names the edge between occurrences v and o as walked from v:
// its forward label when the edge points v → o, its backward label when
// it points o → v. Should several edges join the pair, the last one in
// edge order names it.
func edgeLabel(tg *tss.Graph, net *cn.TSSNetwork, v, o int) string {
	label := ""
	for _, e := range net.Edges {
		if e.From == v && e.To == o {
			label = tg.Edge(e.EdgeID).ForwardLabel
		}
		if e.To == v && e.From == o {
			label = tg.Edge(e.EdgeID).BackwardLabel
		}
	}
	return label
}
