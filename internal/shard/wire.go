package shard

import (
	"repro/internal/kwindex"
	"repro/internal/xmlgraph"
)

// The wire protocol is stdlib net/http + JSON: two POST endpoints on
// every shard server, one round trip per query.
//
//	/shard/execute — derive the plan list from the request-carried
//	                 global postings (read from the coordinator's index)
//	                 and return the results of the plans in the
//	                 request's cover (plan index mod N ∈ Parts).
//	/shard/stats   — identity and health: shard id, N, scheme, partition
//	                 CRC and totals, index state; the coordinator
//	                 validates these at startup and polls them for
//	                 /healthz.
//
// Posting lists dominate the payload, so they travel dictionary-coded:
// the distinct schema-node names once per list, each posting as a
// [to, node, schemaIndex] triple.

// WireList is one containing list in dictionary-coded form.
type WireList struct {
	Schemas []string   `json:"schemas"`
	Posts   [][3]int64 `json:"posts"` // [TO, node, index into Schemas]
}

// EncodeLists dictionary-codes containing lists for the wire.
func EncodeLists(lists map[string][]kwindex.Posting) map[string]WireList {
	out := make(map[string]WireList, len(lists))
	for k, ps := range lists {
		var wl WireList
		idx := make(map[string]int)
		for _, p := range ps {
			si, ok := idx[p.SchemaNode]
			if !ok {
				si = len(wl.Schemas)
				idx[p.SchemaNode] = si
				wl.Schemas = append(wl.Schemas, p.SchemaNode)
			}
			wl.Posts = append(wl.Posts, [3]int64{p.TO, int64(p.Node), int64(si)})
		}
		out[k] = wl
	}
	return out
}

// DecodeLists is the inverse of EncodeLists. Postings with an
// out-of-range schema index are rejected by returning ok=false — a
// malformed peer must fail the request loudly, not inject postings.
func DecodeLists(wire map[string]WireList) (map[string][]kwindex.Posting, bool) {
	out := make(map[string][]kwindex.Posting, len(wire))
	for k, wl := range wire {
		ps := make([]kwindex.Posting, 0, len(wl.Posts))
		for _, t := range wl.Posts {
			si := t[2]
			if si < 0 || si >= int64(len(wl.Schemas)) {
				return nil, false
			}
			ps = append(ps, kwindex.Posting{TO: t[0], Node: xmlgraph.NodeID(t[1]), SchemaNode: wl.Schemas[si]})
		}
		out[k] = ps
	}
	return out, true
}

// ExecRequest asks a shard to execute its share of the query's plan
// list over the query's global postings.
type ExecRequest struct {
	// Keywords are the raw query keywords (the pipeline re-normalizes,
	// so plans derive identically everywhere).
	Keywords []string `json:"keywords"`
	// K bounds the returned results and each plan's (top-k); 0 means all
	// results.
	K int `json:"k"`
	// Strategy is the exec.Strategy value. The coordinator sends its
	// query's, exec.NestedLoop (what a single node's top-k runs); other
	// callers of /shard/execute may choose another.
	Strategy uint8 `json:"strategy"`
	// N is the shard count; Parts is this shard's cover — the residue
	// classes (plan index mod N) of the plans it must plan and execute.
	// Normally {shard id}; after a failure the coordinator reassigns
	// the dead shard's classes to survivors, which keeps the answer
	// exact because this request carries everything execution needs.
	N     int   `json:"n"`
	Parts []int `json:"parts"`
	// Lists are the global containing lists, keyed by normalized
	// keyword; GlobalPostings/GlobalKeywords size the query-scoped
	// source.
	Lists          map[string]WireList `json:"lists"`
	GlobalPostings int                 `json:"global_postings"`
	GlobalKeywords int                 `json:"global_keywords"`
}

// WireResult is one result of a cover's plan. The network is identified
// by the plan index (the high half of Ord): plan lists derive
// identically on every shard and the coordinator, which NetsCRC proves
// per response.
type WireResult struct {
	Ord   int64   `json:"ord"`
	Score int     `json:"score"`
	Bind  []int64 `json:"bind"`
}

// ExecResponse carries the results of a shard's cover.
type ExecResponse struct {
	Shard   int          `json:"shard"`
	Of      int          `json:"of"`
	Results []WireResult `json:"results"`
	// NetsCRC checksums the derived network list (pipeline.Query.NetsCRC:
	// the shape template's canonical strings plus the normalized
	// keywords); the coordinator rejects a response disagreeing with its
	// own derivation instead of mis-attaching results to networks.
	NetsCRC uint32 `json:"nets_crc"`
	// Plans is the derived plan count, for traces.
	Plans int `json:"plans"`
}

// StatsResponse is a shard's identity and health.
type StatsResponse struct {
	Shard      int    `json:"shard"`
	Of         int    `json:"of"`
	Scheme     string `json:"scheme"`
	CRC        uint32 `json:"crc"`
	IndexState string `json:"index_state"`
	IndexErr   string `json:"index_err,omitempty"`
	Postings   int    `json:"postings"`
	Keywords   int    `json:"keywords"`
}

// errorResponse is the JSON error body of a non-200 shard response.
type errorResponse struct {
	Error string `json:"error"`
}

// NormKeyword mirrors the pipeline discover stage's normalization: a
// single-token keyword becomes its token, a multi-token keyword stays
// the raw phrase (the index intersects its tokens on lookup). Wire
// lists are keyed by this form on both sides.
func NormKeyword(k string) string {
	toks := kwindex.Tokenize(k)
	switch len(toks) {
	case 0:
		return ""
	case 1:
		return toks[0]
	}
	return k
}
