package core

import (
	"bytes"
	"slices"
	"strings"

	"repro/internal/cn"
	"repro/internal/exec"
	"repro/internal/jsonstr"
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
	sum, _, _ := s.lookupSummary(to)
	return sum
}

// AppendSummaryJSON appends SummaryOf(to) to dst as a JSON string
// literal, byte-identical to encoding/json. An object-graph summary is
// escaped once, when its memo slot fills, and copied from then on.
func (s *System) AppendSummaryJSON(dst []byte, to int64) []byte {
	dst, _ = s.appendEscapedSummary(append(dst, '"'), to)
	return append(dst, '"')
}

// appendEscapedSummary appends SummaryOf(to) JSON-escaped, unquoted, and
// returns the summary too.
func (s *System) appendEscapedSummary(dst []byte, to int64) ([]byte, string) {
	sum, escaped, memo := s.lookupSummary(to)
	if memo {
		return append(dst, escaped...), sum
	}
	return jsonstr.AppendEscaped(dst, sum), sum
}

// lookupSummary resolves SummaryOf(to). memo reports that the summary
// came from the object graph's memo, which also holds its escaped form;
// otherwise escaped is empty. A SummarySource's summaries are never
// memoised, so an ingest that rewrites one shows on the next call.
func (s *System) lookupSummary(to int64) (sum, escaped string, memo bool) {
	if src, ok := s.Index.(SummarySource); ok {
		if sum, ok := src.Summary(to); ok {
			return sum, "", false
		}
	}
	if m := s.objectSummary(to); m != nil {
		return m.text, m.escaped, true
	}
	return s.Obj.Summary(to), "", false
}

// summary is one slot of the per-TO summary memo: the object graph's
// summary and its JSON escaping (jsonstr.AppendEscaped), which shares
// text's bytes when nothing needs escaping.
type summary struct {
	text, escaped string
}

// objectSummary is tss.ObjectGraph.Summary memoised per target object,
// with its escaping. The object graph is immutable after load, so a
// filled slot never goes stale; two goroutines filling one slot store
// equal values. Ids the object graph does not know return nil: they get
// its placeholder, unmemoised.
func (s *System) objectSummary(to int64) *summary {
	i, ok := s.Obj.Ordinal(to)
	if !ok {
		return nil
	}
	slot := &s.summaries[i]
	if m := slot.Load(); m != nil {
		return m
	}
	m := &summary{text: s.Obj.Summary(to)}
	m.escaped = m.text
	// Every escape lengthens its input, so equal lengths mean no escape.
	if esc := jsonstr.AppendEscaped(nil, m.text); len(esc) != len(m.text) {
		m.escaped = string(esc)
	}
	slot.Store(m)
	return m
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
// splices the results' summaries into it. Every layout's template text,
// and the same text JSON-escaped, lives in one pair of buffers per
// Renderer. Not safe for concurrent use.
type Renderer struct {
	s       *System
	trees   []resultTree // one per network seen, usually a handful
	slots   []treeSlot   // every tree's slots, each tree a contiguous run
	text    []byte       // every tree's template text, back to back
	esc     []byte       // the same text JSON-escaped
	visited []bool       // layout scratch, one flag per occurrence
	scratch []byte       // AppendResultJSON's fallback rendering
}

// NewRenderer returns a Renderer for one batch of results.
func (s *System) NewRenderer() *Renderer { return &Renderer{s: s} }

// Reset readies the Renderer for another batch of results: it forgets
// every layout and keeps its buffers.
func (rd *Renderer) Reset() {
	clear(rd.trees) // let go of the networks
	rd.trees, rd.slots = rd.trees[:0], rd.slots[:0]
	rd.text, rd.esc = rd.text[:0], rd.esc[:0]
}

// AppendResult appends RenderResult(r) to dst.
func (rd *Renderer) AppendResult(dst []byte, r exec.Result) []byte {
	t := rd.tree(r.Net)
	start, prev := len(dst), t.start
	for _, sl := range rd.slots[t.slot0:t.slotEnd] {
		dst = append(dst, rd.text[prev:sl.cut]...)
		dst = append(dst, rd.s.SummaryOf(r.Bind[sl.occ])...)
		prev = sl.cut
	}
	dst = append(dst, rd.text[prev:t.end]...)
	for len(dst) > start && dst[len(dst)-1] == '\n' {
		dst = dst[:len(dst)-1]
	}
	return dst
}

// AppendResultJSON appends RenderResult(r) to dst as a JSON string
// literal, byte-identical to encoding/json, without escaping it: it
// copies the network's escaped template segments and each summary's
// escaping from the memo (see AppendSummaryJSON).
//
// Piecewise escaping equals escaping the whole because every template
// segment starts with a byte that is not a UTF-8 continuation byte and
// ends in a complete rune (see jsonstr.AppendEscaped). AppendResult
// trims the result's trailing newlines; when the template text after the
// last summary is all newlines and that summary ends in a newline, the
// trim reaches into the summary, and the rendering is escaped whole
// instead. (It cannot reach past an empty one: the text before a
// summary ends in "└─ " or is empty.)
func (rd *Renderer) AppendResultJSON(dst []byte, r exec.Result) []byte {
	t := rd.tree(r.Net)
	start, prev := len(dst), t.escStart
	dst = append(dst, '"')
	var sum string
	for _, sl := range rd.slots[t.slot0:t.slotEnd] {
		dst = append(dst, rd.esc[prev:sl.escCut]...)
		dst, sum = rd.s.appendEscapedSummary(dst, r.Bind[sl.occ])
		prev = sl.escCut
	}
	if t.newlineTail && strings.HasSuffix(sum, "\n") {
		rd.scratch = rd.AppendResult(rd.scratch[:0], r)
		return jsonstr.Append(dst[:start], rd.scratch)
	}
	dst = append(dst, rd.esc[prev:t.escEnd]...)
	return append(dst, '"')
}

// tree returns net's layout, walking it on first sight.
func (rd *Renderer) tree(net *cn.TSSNetwork) *resultTree {
	for i := range rd.trees {
		if rd.trees[i].net == net {
			return &rd.trees[i]
		}
	}
	rd.visited = slices.Grow(rd.visited[:0], len(net.Occs))[:len(net.Occs)]
	clear(rd.visited)
	t := resultTree{net: net, start: len(rd.text), escStart: len(rd.esc), slot0: len(rd.slots)}
	rd.walk(net, 0, 0)
	t.end, t.escEnd, t.slotEnd = len(rd.text), len(rd.esc), len(rd.slots)
	// The escaped text leaves out the trailing newlines AppendResult
	// trims; each is two bytes there.
	last := rd.slots[t.slotEnd-1].cut
	tail := bytes.TrimRight(rd.text[last:t.end], "\n")
	t.escEnd -= 2 * (t.end - last - len(tail))
	t.newlineTail = len(tail) == 0
	rd.trees = append(rd.trees, t)
	return &rd.trees[len(rd.trees)-1]
}

// resultTree is a network's rendering with the summaries left out: the
// template text rd.text[start:end] with a cut where each occurrence's
// summary goes, in walk order (rd.slots[slot0:slotEnd]). A result
// renders as the text with its summaries spliced in at the cuts,
// trailing newlines trimmed. rd.esc[escStart:escEnd] is the same text
// JSON-escaped, those newlines left out.
type resultTree struct {
	net              *cn.TSSNetwork
	start, end       int
	escStart, escEnd int
	slot0, slotEnd   int
	newlineTail      bool // the text after the last cut is all newlines
}

type treeSlot struct {
	occ    int // occurrence whose summary goes here
	cut    int // offset into Renderer.text
	escCut int // offset into Renderer.esc
}

// walk lays the network out depth-first from occurrence v, children in
// edge order, each behind a line naming the edge in the direction it is
// walked. It writes the text and its escaping side by side: literals are
// escaped by hand, keywords and edge labels by jsonstr. Each of those
// sits between literals that end and start whole runes, so escaping
// them apart equals escaping the text whole.
func (rd *Renderer) walk(net *cn.TSSNetwork, v, depth int) {
	rd.visited[v] = true
	rd.indent(depth)
	if depth > 0 {
		rd.literal("└─ ")
	}
	rd.slots = append(rd.slots, treeSlot{occ: v, cut: len(rd.text), escCut: len(rd.esc)})
	if kws := net.Occs[v].Keywords; len(kws) > 0 {
		rd.literal("  «")
		for i, k := range kws {
			if i > 0 {
				rd.literal(",")
			}
			rd.data(k.Keyword)
		}
		rd.literal("»")
	}
	rd.newline()
	for _, e := range net.Edges {
		o := e.To
		if e.To == v {
			o = e.From
		} else if e.From != v {
			continue
		}
		if rd.visited[o] {
			continue
		}
		rd.indent(depth + 1)
		rd.literal("(")
		rd.data(edgeLabel(rd.s.TSS, net, v, o))
		rd.literal(")")
		rd.newline()
		rd.walk(net, o, depth+1)
	}
}

// literal appends template text that JSON leaves as it is.
func (rd *Renderer) literal(s string) {
	rd.text = append(rd.text, s...)
	rd.esc = append(rd.esc, s...)
}

// data appends a keyword or an edge label, escaped.
func (rd *Renderer) data(s string) {
	rd.text = append(rd.text, s...)
	rd.esc = jsonstr.AppendEscaped(rd.esc, s)
}

func (rd *Renderer) newline() {
	rd.text = append(rd.text, '\n')
	rd.esc = append(rd.esc, '\\', 'n')
}

func (rd *Renderer) indent(depth int) {
	for i := 0; i < depth; i++ {
		rd.literal("  ")
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
