package segidx_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/kwindex"
	"repro/internal/segidx"
)

// The equivalence property: after any sequence of ingests, updates,
// deletes, flushes, compactions and reopens, the layered store answers
// ContainingList, SchemaNodes and TOSet exactly like a from-scratch
// in-memory kwindex.Index built over the surviving documents, and
// Summary with the summary of each TO's latest ingested document. The
// reference derivation below re-implements the keyword rule of
// kwindex.Build (distinct tokens of label and value, per field)
// independently, so a bug in the store's shared derivation cannot hide
// by mirroring itself.

var eqVocab = []string{
	"john", "mary", "smith", "vcr", "dvd", "order", "urgent", "tpc",
	"2001", "widget", "comment", "pending",
}

var eqSchemas = []string{"name", "comment", "partname", "description"}

// refIndex builds the reference in-memory index over surviving docs.
func refIndex(docs map[int64]segidx.Document) *kwindex.Index {
	postings := make(map[string][]kwindex.Posting)
	for to, d := range docs {
		for _, f := range d.Fields {
			seen := make(map[string]bool)
			for _, tok := range append(kwindex.Tokenize(f.Label), kwindex.Tokenize(f.Value)...) {
				if seen[tok] {
					continue
				}
				seen[tok] = true
				postings[tok] = append(postings[tok], kwindex.Posting{TO: to, Node: f.Node, SchemaNode: f.SchemaNode})
			}
		}
	}
	return kwindex.FromPostings(postings)
}

func randomDoc(rng *rand.Rand, to int64) segidx.Document {
	nf := 1 + rng.Intn(3)
	d := segidx.Document{TO: to}
	for i := 0; i < nf; i++ {
		words := ""
		for w := 0; w < 1+rng.Intn(3); w++ {
			words += eqVocab[rng.Intn(len(eqVocab))] + " "
		}
		d.Fields = append(d.Fields, segidx.Field{
			Node:       xmlNode(to*100 + int64(i)),
			SchemaNode: eqSchemas[rng.Intn(len(eqSchemas))],
			Label:      eqSchemas[rng.Intn(len(eqSchemas))],
			Value:      words,
		})
	}
	return d
}

// requireEquivalent compares every vocabulary keyword (plus a
// multi-token one) across the three query methods, and the summary of
// every TO the workload draws: a TO whose latest store operation was an
// add presents that document's summary, any other TO (deleted, never
// ingested, or only in the base) has none in the store.
func requireEquivalent(t *testing.T, stage string, s *segidx.Store, ref *kwindex.Index, ingested map[int64]segidx.Document) {
	t.Helper()
	for to := int64(1); to <= 50; to++ {
		var want string
		d, added := ingested[to]
		if added {
			want = d.Summary()
		}
		if sum, ok := s.Summary(to); sum != want || ok != added {
			t.Fatalf("%s: Summary(%d) = %q, %v; want %q, %v", stage, to, sum, ok, want, added)
		}
	}
	keys := append(append([]string(nil), eqVocab...), "john smith", "absentword")
	for _, k := range keys {
		want := ref.ContainingList(k)
		got := s.ContainingList(k)
		if len(got) != 0 || len(want) != 0 {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: ContainingList(%q)\n got %+v\nwant %+v", stage, k, got, want)
			}
		}
		if sn := s.SchemaNodes(k); !reflect.DeepEqual(sn, ref.SchemaNodes(k)) {
			t.Fatalf("%s: SchemaNodes(%q) = %v, want %v", stage, k, sn, ref.SchemaNodes(k))
		}
		for _, schema := range append([]string{""}, eqSchemas...) {
			if ts := s.TOSet(k, schema); !reflect.DeepEqual(ts, ref.TOSet(k, schema)) {
				t.Fatalf("%s: TOSet(%q, %q) = %v, want %v", stage, k, schema, ts, ref.TOSet(k, schema))
			}
		}
	}
}

func runEquivalenceWorkload(t *testing.T, seed int64, base kwindex.Source, baseDocs map[int64]segidx.Document) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	opts := segidx.Options{Base: base, CompactAt: -1, FlushBytes: -1}
	s := openStore(t, dir, opts)

	// surviving mirrors what the store must serve.
	surviving := make(map[int64]segidx.Document, len(baseDocs))
	for to, d := range baseDocs {
		surviving[to] = d
	}
	// ingested holds the TOs whose latest store operation was an add.
	ingested := make(map[int64]segidx.Document)

	const ops = 400
	for i := 0; i < ops; i++ {
		switch r := rng.Intn(100); {
		case r < 55: // upsert (often colliding TOs, to exercise masking)
			to := int64(1 + rng.Intn(40))
			d := randomDoc(rng, to)
			mustAdd(t, s, d)
			surviving[to] = d
			ingested[to] = d
		case r < 75: // delete (sometimes of absent TOs)
			to := int64(1 + rng.Intn(50))
			mustDelete(t, s, to)
			delete(surviving, to)
			delete(ingested, to)
		case r < 83: // batch of several ops, acknowledged atomically
			var b segidx.Batch
			for n := 0; n < 1+rng.Intn(4); n++ {
				if rng.Intn(3) == 0 {
					to := int64(1 + rng.Intn(50))
					b.DeleteTO(to)
					delete(surviving, to)
					delete(ingested, to)
				} else {
					to := int64(1 + rng.Intn(40))
					d := randomDoc(rng, to)
					b.AddDoc(d)
					surviving[to] = d
					ingested[to] = d
				}
			}
			if err := s.Apply(b); err != nil {
				t.Fatal(err)
			}
		case r < 93:
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		case r < 97:
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
		default: // crash-free restart
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s = openStore(t, dir, opts)
		}
		if i%50 == 49 {
			requireEquivalent(t, fmt.Sprintf("seed %d op %d", seed, i), s, refIndex(surviving), ingested)
		}
	}

	requireEquivalent(t, fmt.Sprintf("seed %d final", seed), s, refIndex(surviving), ingested)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	requireEquivalent(t, fmt.Sprintf("seed %d compacted", seed), s, refIndex(surviving), ingested)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = openStore(t, dir, opts)
	requireEquivalent(t, fmt.Sprintf("seed %d reopened", seed), s, refIndex(surviving), ingested)
}

func TestEquivalenceRandomizedWorkloads(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			runEquivalenceWorkload(t, seed, nil, nil)
		})
	}
}

func TestEquivalenceRandomizedWorkloadsOverBase(t *testing.T) {
	// The base holds TOs 1..25; the workload updates and deletes into
	// that range, so base masking is exercised throughout.
	rng := rand.New(rand.NewSource(99))
	baseDocs := make(map[int64]segidx.Document)
	for to := int64(1); to <= 25; to++ {
		baseDocs[to] = randomDoc(rng, to)
	}
	base := refIndex(baseDocs)
	for seed := int64(11); seed <= 13; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			runEquivalenceWorkload(t, seed, base, baseDocs)
		})
	}
}
