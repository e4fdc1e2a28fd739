package optimizer

import (
	"fmt"
	"strings"

	"repro/internal/relstore"
	"repro/internal/tss"
)

// Explain renders the plan as a readable pipeline: the seed, then one
// line per probe step with the connection relation, the probe column and
// its access path, the equality checks, and the occurrences it binds —
// the execution-plan output the paper's optimizer hands to the execution
// module (Figure 7).
func (p *Plan) Explain(tg *tss.Graph, store *relstore.Store) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "plan for %s (score %d, %d joins)\n", p.Net, p.Net.Score(), p.Joins)
	for i, s := range p.Steps {
		if s.Seed {
			occ := p.Net.Occs[s.Occ]
			n := "∅"
			if p.Filters[s.Occ] != nil {
				n = fmt.Sprint(len(p.Filters[s.Occ]))
			}
			fmt.Fprintf(&sb, "  %d. seed %s@occ%d (containing list: %s)\n", i+1, occ.Segment, s.Occ, n)
			continue
		}
		path := relstore.PathScan
		if store != nil && s.Rel != nil {
			path = s.Probe.Path()
		}
		var news, checks []string
		for _, pos := range s.NewPos {
			news = append(news, fmt.Sprintf("occ%d", s.Piece.Occs[pos]))
		}
		for _, pos := range s.CheckPos {
			checks = append(checks, fmt.Sprintf("t%d=occ%d", pos, s.Piece.Occs[pos]))
		}
		line := fmt.Sprintf("  %d. probe %s [%s] by t%d=occ%d", i+1, s.Piece.Frag.String(tg), path, s.ProbePos, s.Piece.Occs[s.ProbePos])
		if len(checks) > 0 {
			line += " check " + strings.Join(checks, ",")
		}
		if len(news) > 0 {
			line += " bind " + strings.Join(news, ",")
		}
		sb.WriteString(line + "\n")
	}
	return strings.TrimRight(sb.String(), "\n")
}
