package shard

import (
	"repro/internal/kwindex"
)

// QuerySource is the query-scoped kwindex.Source built from the global
// postings the coordinator read from its master index: execute requests
// carry them, so every shard (and the coordinator, for network
// reconstruction and minimality filtering) runs the ordinary pipeline
// against exactly the postings a single node's master index returns for
// this query's keywords. Lookups for keywords outside the query's set
// return empty — the pipeline only ever asks for the query's own
// keywords.
type QuerySource struct {
	lists    map[string][]kwindex.Posting // keyed by NormKeyword
	postings int
	keywords int
}

// NewQuerySource wraps global lists (keyed by normalized keyword) with
// the global index totals the Source interface reports.
func NewQuerySource(lists map[string][]kwindex.Posting, postings, keywords int) *QuerySource {
	return &QuerySource{lists: lists, postings: postings, keywords: keywords}
}

var _ kwindex.Source = (*QuerySource)(nil)

// ContainingList returns the global list of one keyword.
func (s *QuerySource) ContainingList(k string) []kwindex.Posting {
	return s.lists[NormKeyword(k)]
}

// SchemaNodes returns the distinct schema nodes of the keyword's list.
func (s *QuerySource) SchemaNodes(k string) []string {
	return kwindex.DistinctSchemaNodes(s.ContainingList(k))
}

// TOSet returns the keyword's TOs, restricted to a schema node.
func (s *QuerySource) TOSet(k, schemaNode string) map[int64]bool {
	return kwindex.TOSetFromList(s.ContainingList(k), schemaNode)
}

// NumPostings reports the global posting total.
func (s *QuerySource) NumPostings() int { return s.postings }

// NumKeywords reports the global keyword figure.
func (s *QuerySource) NumKeywords() int { return s.keywords }
