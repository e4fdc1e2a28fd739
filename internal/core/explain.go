package core

import (
	"context"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// ExplainAnalyze answers the query exactly like Query (k > 0, top-k
// nested loops) or QueryAll (k <= 0, automatic strategy) while
// collecting a span per pipeline stage, and returns the per-stage tree:
// duration, input/output cardinality and cache traffic for discovery,
// CN generation, CTSSN reduction, optimization, execution and ranking.
// The query's results are in Explain.Results (count) — use Query/
// QueryAll when the result trees themselves are needed.
func (s *System) ExplainAnalyze(ctx context.Context, keywords []string, k int) (*pipeline.Explain, error) {
	tr := obs.NewTrace()
	q := &pipeline.Query{
		Keywords: keywords,
		Mode:     pipeline.ModeTopK,
		K:        k,
		Strategy: exec.NestedLoop,
		Trace:    tr,
	}
	if k <= 0 {
		q.Mode = pipeline.ModeAll
		q.K = 0
		q.Strategy = exec.AutoStrategy
	}
	if err := s.Run(ctx, q); err != nil {
		return nil, err
	}
	return pipeline.NewExplain(q, tr), nil
}
