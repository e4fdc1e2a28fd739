package pipeline_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/cn"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/kwindex"
	"repro/internal/optimizer"
	"repro/internal/pipeline"
)

// mapMemo is a minimal pipeline.TemplateCache: the shape memo without
// the LRU bound.
type mapMemo struct {
	mu    sync.Mutex
	tmpls map[string]*pipeline.Template
}

func newMapMemo() *mapMemo { return &mapMemo{tmpls: map[string]*pipeline.Template{}} }

func (m *mapMemo) Template(sig string) (*pipeline.Template, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.tmpls[sig]
	return t, ok
}

func (m *mapMemo) PutTemplate(sig string, t *pipeline.Template) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tmpls[sig] = t
}

// tpchSystem is a synthetic TPC-H instance large enough that keyword
// lists differ in size (so seeds differ between queries of one shape).
func tpchSystem(t *testing.T, opts core.Options) *core.System {
	t.Helper()
	ds, err := datagen.TPCH(datagen.TPCHParams{
		Persons: 12, OrdersPerPerson: 2, LineitemsPerOrder: 2, Parts: 8, SubsPerPart: 2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.LoadPrepared(&core.Prepared{Schema: ds.Schema, TSS: ds.TSS, Data: ds.Data, Obj: ds.Obj}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// fromScratch is the reference derivation a template must reproduce:
// generate with placeholders, substitute, reduce every candidate
// network, dedup by canonical string, stable-sort by score, plan each —
// all per query, nothing shared.
func fromScratch(t *testing.T, sys *core.System, norm []string, nodeLists [][]string) ([]*cn.Network, []*cn.TSSNetwork, []*optimizer.Plan) {
	t.Helper()
	ph := make([]string, len(norm))
	phNodes := make(map[string][]string)
	phIndex := make(map[string]int)
	for i := range norm {
		ph[i] = fmt.Sprintf("\x02ref%d\x02", i)
		phNodes[ph[i]] = nodeLists[i]
		phIndex[ph[i]] = i
	}
	generic, err := cn.Generate(cn.Input{Schema: sys.Schema, Keywords: ph, SchemaNodesOf: phNodes, MaxSize: sys.Opts.Z})
	if err != nil {
		t.Fatal(err)
	}
	cns := make([]*cn.Network, len(generic))
	for i, g := range generic {
		n := g.Clone()
		for oi := range n.Occs {
			for ki, kw := range n.Occs[oi].Keywords {
				n.Occs[oi].Keywords[ki] = norm[phIndex[kw]]
			}
			sort.Strings(n.Occs[oi].Keywords)
		}
		cns[i] = n
	}
	var nets []*cn.TSSNetwork
	seen := make(map[string]bool)
	for _, n := range cns {
		tn, err := cn.Reduce(sys.TSS, n)
		if err != nil {
			t.Fatal(err)
		}
		if key := tn.Canon(); !seen[key] {
			seen[key] = true
			nets = append(nets, tn)
		}
	}
	sort.SliceStable(nets, func(i, j int) bool { return nets[i].Score() < nets[j].Score() })
	var plans []*optimizer.Plan
	for _, tn := range nets {
		opt := &optimizer.Optimizer{TSS: sys.TSS, Store: sys.Store, Index: sys.Index, Stats: sys.Stats,
			Fragments: sys.Decomp.Fragments, MaxJoins: sys.Opts.B}
		p, err := opt.Plan(tn)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, p)
	}
	return cns, nets, plans
}

// TestTemplateMatchesFromScratch is the differential test of the shape
// template: for a randomized batch of queries — among them a repeated
// keyword, a multi-token phrase, keywords held by several schema nodes
// and relaxation substitutions — the candidate networks, CTSSNs and
// plans instantiated from the (shared, warm or cold) template are
// deep-equal to the from-scratch derivation.
func TestTemplateMatchesFromScratch(t *testing.T) {
	sys := tpchSystem(t, core.Options{Relax: true})
	ix := sys.Index.(*kwindex.Index)
	var vocab, multiNode []string
	for _, term := range ix.Terms() {
		vocab = append(vocab, term)
		if len(ix.SchemaNodes(term)) > 1 {
			multiNode = append(multiNode, term)
		}
	}
	if len(multiNode) == 0 {
		t.Fatal("dataset has no keyword held by several schema nodes")
	}
	// A phrase that matches as a phrase: two tokens of one node's value.
	phrase := ""
	for _, id := range sys.Data.Nodes() {
		if toks := kwindex.Tokenize(sys.Data.Node(id).Value); len(toks) >= 2 {
			phrase = strings.ToUpper(toks[0][:1]) + toks[0][1:] + " " + toks[1]
			break
		}
	}
	if phrase == "" || len(ix.SchemaNodes(phrase)) == 0 {
		t.Fatalf("no matching multi-token phrase in the dataset (tried %q)", phrase)
	}

	rng := rand.New(rand.NewSource(13))
	pick := func(from []string) string { return from[rng.Intn(len(from))] }
	queries := [][]string{
		{"john", "john"},                          // repeated keyword
		{multiNode[0], multiNode[0]},              // repeated, several nodes
		{pick(vocab), multiNode[0], multiNode[0]}, // repeated among three
		{phrase, pick(vocab)},                     // multi-token phrase
		{phrase, phrase},                          // repeated phrase
		{multiNode[0], pick(vocab)},               // several schema nodes
		{"john zzznomatch", "tv"},                 // relaxed: substituted by "john"
		{"john zzznomatch", "john"},               // substitution creates a repeat
		{"zzznomatch", "vcr", "john"},             // relaxed: dropped
	}
	for i := 0; i < 40; i++ {
		n := 1 + rng.Intn(3)
		var kws []string
		for len(kws) < n {
			kws = append(kws, pick(vocab))
		}
		if rng.Intn(4) == 0 {
			kws[rng.Intn(n)] = pick(multiNode)
		}
		queries = append(queries, kws)
	}

	memo := newMapMemo()
	p := pipeline.New(pipeline.Config{
		Schema: sys.Schema, TSS: sys.TSS, Index: sys.Index, Z: sys.Opts.Z, Relax: true, Templates: memo,
		NewOptimizer: func() *optimizer.Optimizer {
			return &optimizer.Optimizer{TSS: sys.TSS, Store: sys.Store, Index: sys.Index, Stats: sys.Stats,
				Fragments: sys.Decomp.Fragments, MaxJoins: sys.Opts.B}
		},
	})
	ctx := context.Background()
	shapes := make(map[string]int)
	// Two passes: every query instantiates from a cold and from a warm
	// template, and queries of one shape share its cached per-seed steps.
	for pass := 0; pass < 2; pass++ {
		for _, kws := range queries {
			q := &pipeline.Query{Keywords: kws, Mode: pipeline.ModePlans}
			if err := p.Run(ctx, q); err != nil {
				t.Fatalf("%q: %v", kws, err)
			}
			shapes[q.Sig]++
			wantCNs, wantNets, wantPlans := fromScratch(t, sys, q.Norm, q.NodeLists)
			if !reflect.DeepEqual(q.CNs, wantCNs) {
				t.Fatalf("%q pass %d: candidate networks differ from scratch:\ngot  %v\nwant %v", kws, pass, q.CNs, wantCNs)
			}
			if !reflect.DeepEqual(q.Nets, wantNets) {
				t.Fatalf("%q pass %d: CTSSNs differ from scratch:\ngot  %v\nwant %v", kws, pass, q.Nets, wantNets)
			}
			if len(q.Plans) != len(wantPlans) {
				t.Fatalf("%q pass %d: %d plans, from scratch %d", kws, pass, len(q.Plans), len(wantPlans))
			}
			for i, pl := range q.Plans {
				if !reflect.DeepEqual(pl.Plan, wantPlans[i]) {
					t.Fatalf("%q pass %d: plan %d differs from scratch:\ngot  %+v\nwant %+v", kws, pass, i, pl.Plan, wantPlans[i])
				}
			}
		}
	}
	shared := 0
	for _, n := range shapes {
		if n > 2 {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no two queries of the batch shared a shape; the test exercised no template reuse")
	}
}

// TestNetsCRCSeparates: the network checksum is equal for equal
// derivations and differs when the keywords or the shape differ.
func TestNetsCRCSeparates(t *testing.T) {
	sys := testSystem(t)
	p := newPipeline(sys, newMapMemo())
	crc := func(kws ...string) uint32 {
		q := &pipeline.Query{Keywords: kws, Mode: pipeline.ModeNetworks}
		if err := p.Run(context.Background(), q); err != nil {
			t.Fatal(err)
		}
		return q.NetsCRC()
	}
	if crc("john", "vcr") != crc("john", "vcr") {
		t.Fatal("same query, different CRC")
	}
	if crc("john", "vcr") == crc("mike", "vcr") {
		t.Fatal("same shape, different keywords, same CRC")
	}
	if crc("john", "vcr") == crc("vcr", "john") {
		t.Fatal("keyword order is part of the derivation but not of the CRC")
	}
	if crc("john") == crc("john", "john") {
		t.Fatal("different shapes, same CRC")
	}
}
