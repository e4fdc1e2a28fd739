package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/decomp"
)

// SpaceComparison materializes every decomposition preset and reports
// fragment counts, total rows and pages — the space side of the
// space/performance tradeoff of §5.1, including the MVD-fragment blow-up
// that makes the Complete decomposition expensive.
func SpaceComparison(w *Workload) (string, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Decomposition space (DBLP-like dataset, %d target objects)\n", w.DS.Obj.NumObjects())
	fmt.Fprintf(&sb, "%-16s %10s %12s %10s %18s\n", "decomposition", "fragments", "rows", "pages", "largest relation")
	for _, preset := range fig15Presets {
		sys, err := w.load(preset)
		if err != nil {
			return "", err
		}
		rep := decomp.Report(sys.Store, sys.TSS, sys.Decomp)
		sort.Slice(rep.PerFrag, func(i, j int) bool { return rep.PerFrag[i].Rows > rep.PerFrag[j].Rows })
		largest := "-"
		if len(rep.PerFrag) > 0 {
			f := rep.PerFrag[0]
			largest = fmt.Sprintf("%s (%s, %d rows)", f.Fragment, f.Class, f.Rows)
		}
		fmt.Fprintf(&sb, "%-16s %10d %12d %10d %18s\n",
			preset, rep.Fragments, rep.TotalRows, rep.TotalPages, largest)
	}
	return sb.String(), nil
}
