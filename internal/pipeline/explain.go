package pipeline

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/obs"
)

// Explain is the per-stage tree of one analyzed query: what EXPLAIN
// ANALYZE returns. It is JSON-shaped for the HTTP APIs and renders a
// fixed-width textual tree for the CLI.
type Explain struct {
	Keywords []string      `json:"keywords"`
	Mode     string        `json:"mode"`
	K        int           `json:"k,omitempty"`
	Networks int           `json:"networks"`
	Results  int           `json:"results"`
	Total    time.Duration `json:"total_ns"`
	Stages   []obs.Span    `json:"stages"`
}

// NewExplain assembles the report from a completed traced query.
func NewExplain(q *Query, tr *obs.Trace) *Explain {
	e := &Explain{
		Keywords: append([]string(nil), q.Keywords...),
		Mode:     q.Mode.String(),
		K:        q.K,
		Networks: len(q.Nets),
		Results:  len(q.Results),
		Total:    tr.Elapsed(),
		Stages:   tr.Spans(),
	}
	return e
}

// Format renders the textual EXPLAIN ANALYZE tree:
//
//	EXPLAIN ANALYZE keywords=[john vcr] mode=topk k=10
//	4 networks, 3 results, total 1.2ms
//	├─ discover  12µs   in=2  out=3
//	├─ generate  45µs   in=2  out=5   memo=miss
//	├─ reduce    8µs    in=5  out=4
//	├─ optimize  30µs   in=4  out=4
//	├─ execute   950µs  in=4  out=3   cache=12h/34m  (topk)
//	└─ rank      1µs    in=3  out=3
func (e *Explain) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "EXPLAIN ANALYZE keywords=[%s] mode=%s", strings.Join(e.Keywords, " "), e.Mode)
	if e.Mode == ModeTopK.String() {
		fmt.Fprintf(&sb, " k=%d", e.K)
	}
	sb.WriteString("\n")
	fmt.Fprintf(&sb, "%d networks, %d results, total %v\n", e.Networks, e.Results, e.Total.Round(time.Microsecond))
	for i, sp := range e.Stages {
		branch := "├─"
		if i == len(e.Stages)-1 {
			branch = "└─"
		}
		fmt.Fprintf(&sb, "%s %-9s %-8v in=%-5d out=%-5d", branch, sp.Stage,
			sp.Duration.Round(time.Microsecond), sp.In, sp.Out)
		if sp.Stage == StageGenerate {
			memo := "miss"
			if sp.Cached {
				memo = "hit"
			}
			fmt.Fprintf(&sb, " memo=%s", memo)
		}
		if sp.Note != "" {
			fmt.Fprintf(&sb, " (%s)", sp.Note)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
