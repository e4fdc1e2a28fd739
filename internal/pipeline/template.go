package pipeline

import (
	"fmt"
	"hash/crc32"
	"sort"
	"strconv"

	"repro/internal/cn"
	"repro/internal/optimizer"
)

// Template is one keyword shape compiled once: everything the paper's
// query stage derives before a containing list's size matters (§4–§5).
// It holds the generic candidate networks with positional placeholder
// keywords, their reductions to CTSSNs — isomorphism-deduped and sorted
// ascending by score, the order the execute stage relies on — and, per
// CTSSN, its canonical string and its compiled plan shape (fragment
// cover plus lazily filled per-seed step orders). Per query the
// generate, reduce and optimize stages only substitute the keywords,
// pick each plan's seed from the filter sizes and bind the cached
// steps. A Template is immutable once built, so the shape memo shares
// one between concurrent queries.
type Template struct {
	cns  []cnTemplate
	nets []netTemplate
	// crc checksums the nets' canonical strings in order (see
	// Query.NetsCRC).
	crc uint32
}

// cnTemplate is one generic candidate network; kw[o][i] is the query
// keyword index behind the i-th placeholder of occurrence o.
type cnTemplate struct {
	net *cn.Network
	kw  [][]int
}

// netTemplate is one generic CTSSN. cn indexes the template's generic
// CN it reduces (the lowest-score one of its isomorphism class); kw is
// aligned with net.Occs[o].Keywords. A network the decomposition cannot
// cover keeps its compile error for the optimize stage to report.
type netTemplate struct {
	net   *cn.TSSNetwork
	canon string
	cn    int
	kw    [][]int
	shape *optimizer.Shape
	err   error
}

// placeholder returns the positional keyword stand-in generic networks
// carry; \x01 cannot appear in tokenized keywords.
func placeholder(i int) string { return "\x01k" + strconv.Itoa(i) + "\x01" }

// equalityClasses maps each keyword position to the first position
// holding the same keyword ("chen chen" → [0 0]).
func equalityClasses(norm []string) []int {
	class := make([]int, len(norm))
	for i, k := range norm {
		class[i] = i
		for j := 0; j < i; j++ {
			if norm[j] == k {
				class[i] = j
				break
			}
		}
	}
	return class
}

// compile builds the template of a keyword shape from its generic
// candidate networks. norm supplies only the keyword-equality pattern
// (part of the shape signature): a repeated keyword shares one
// placeholder during reduction, so isomorphism dedup under placeholders
// keeps exactly the networks dedup under substitution would.
func (c *Config) compile(generic []*cn.Network, norm []string) (*Template, error) {
	class := equalityClasses(norm)
	phIndex := make(map[string]int, len(norm))
	for i := range norm {
		phIndex[placeholder(i)] = i
	}
	// slot maps a placeholder keyword to its query keyword index. A
	// keyword that is not a known placeholder means the cached network
	// cannot belong to this shape: fail loudly instead of silently
	// skipping the substitution.
	slot := func(owner fmt.Stringer, kw string) (int, error) {
		idx, ok := phIndex[kw]
		if !ok {
			return 0, fmt.Errorf("pipeline: network %s carries unknown placeholder %q", owner, kw)
		}
		return idx, nil
	}

	t := &Template{cns: make([]cnTemplate, len(generic))}
	seen := make(map[string]bool)
	for gi, g := range generic {
		ct := cnTemplate{net: g, kw: make([][]int, len(g.Occs))}
		folded := g // g with repeated keywords sharing a placeholder
		for oi, o := range g.Occs {
			repeated := false
			for _, kw := range o.Keywords {
				idx, err := slot(g, kw)
				if err != nil {
					return nil, err
				}
				ct.kw[oi] = append(ct.kw[oi], idx)
				repeated = repeated || class[idx] != idx
			}
			if !repeated {
				continue
			}
			if folded == g {
				folded = g.Clone()
			}
			for ki, idx := range ct.kw[oi] {
				folded.Occs[oi].Keywords[ki] = placeholder(class[idx])
			}
			sort.Strings(folded.Occs[oi].Keywords)
		}
		t.cns[gi] = ct
		tn, err := cn.Reduce(c.TSS, folded)
		if err != nil {
			return nil, fmt.Errorf("pipeline: reducing %s: %w", g, err)
		}
		// Distinct CTSSNs only; keep the lowest-score CN per shape.
		nt := netTemplate{net: tn, canon: tn.Canon(), cn: gi, kw: make([][]int, len(tn.Occs))}
		if seen[nt.canon] {
			continue
		}
		seen[nt.canon] = true
		for oi, o := range tn.Occs {
			for _, ka := range o.Keywords {
				idx, err := slot(tn, ka.Keyword)
				if err != nil {
					return nil, err
				}
				nt.kw[oi] = append(nt.kw[oi], idx)
			}
		}
		t.nets = append(t.nets, nt)
	}
	sort.SliceStable(t.nets, func(i, j int) bool { return t.nets[i].net.Score() < t.nets[j].net.Score() })
	opt := c.NewOptimizer()
	for i := range t.nets {
		nt := &t.nets[i]
		nt.shape, nt.err = opt.Compile(nt.net)
		t.crc = crc32.Update(t.crc, crc32.IEEETable, []byte(nt.canon))
		t.crc = crc32.Update(t.crc, crc32.IEEETable, []byte{0})
	}
	return t, nil
}

// candidates substitutes one query's keywords into the generic CNs.
// Edges are shared with the template (capacity-capped, so an append
// cannot reach it); occurrences and keyword lists are the query's own.
func (t *Template) candidates(norm []string) []*cn.Network {
	out := make([]*cn.Network, len(t.cns))
	for i, ct := range t.cns {
		g := ct.net
		n := &cn.Network{
			Occs:  make([]cn.Occ, len(g.Occs)),
			Edges: g.Edges[:len(g.Edges):len(g.Edges)],
		}
		for oi, o := range g.Occs {
			n.Occs[oi].Schema = o.Schema
			if idx := ct.kw[oi]; len(idx) > 0 {
				kws := make([]string, len(idx))
				for ki, k := range idx {
					kws[ki] = norm[k]
				}
				sort.Strings(kws)
				n.Occs[oi].Keywords = kws
			}
		}
		out[i] = n
	}
	return out
}

// network instantiates the i-th generic CTSSN for one query: keywords
// substituted and re-sorted by (keyword, schema node) as cn.Reduce
// leaves them, the originating CN taken from the query's substituted
// candidates.
func (t *Template) network(i int, norm []string, cns []*cn.Network) *cn.TSSNetwork {
	nt := &t.nets[i]
	g := nt.net
	tn := &cn.TSSNetwork{
		Occs:  make([]cn.TSSOcc, len(g.Occs)),
		Edges: g.Edges[:len(g.Edges):len(g.Edges)],
		CN:    cns[nt.cn],
	}
	for oi, o := range g.Occs {
		tn.Occs[oi].Segment = o.Segment
		idx := nt.kw[oi]
		if len(idx) == 0 {
			continue
		}
		ks := make([]cn.KeywordAt, len(idx))
		for ki, k := range idx {
			ks[ki] = cn.KeywordAt{Keyword: norm[k], SchemaNode: o.Keywords[ki].SchemaNode}
		}
		if len(ks) > 1 {
			sort.Slice(ks, func(a, b int) bool {
				if ks[a].Keyword != ks[b].Keyword {
					return ks[a].Keyword < ks[b].Keyword
				}
				return ks[a].SchemaNode < ks[b].SchemaNode
			})
		}
		tn.Occs[oi].Keywords = ks
	}
	return tn
}

// NetsCRC checksums the query's derived network list: the template's
// canonical strings (structure and placeholder positions, computed once
// per shape) followed by the normalized keywords that fill them. Two
// nodes that derived the same CRC derived the same plan list, so a
// result's plan index means the same network on both — the
// scatter-gather coordinator checks it on every shard response. Zero
// before the generate stage has run.
func (q *Query) NetsCRC() uint32 {
	if q.tmpl == nil {
		return 0
	}
	crc := q.tmpl.crc
	for _, k := range q.Norm {
		crc = crc32.Update(crc, crc32.IEEETable, []byte(k))
		crc = crc32.Update(crc, crc32.IEEETable, []byte{0})
	}
	return crc
}
