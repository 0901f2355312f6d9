package experiment

import (
	"mpichv/internal/harness"
)

// fig07Groups is the benchmark/process-count grid of Figure 7.
var fig07Groups = []benchGroup{
	{"bt", "A", []int{4, 9, 16}},
	{"cg", "A", []int{2, 4, 8, 16}},
	{"lu", "A", []int{2, 4, 8, 16}},
}

var fig07Specs = groupSpecs(fig07Groups)

// fig07Report reproduces Figure 7: the total piggybacked causality
// data exchanged during BT, CG and LU class A, as a percentage of the total
// application data, for the three reduction techniques with and without
// Event Logger.
//
// It runs Figure 7 as one sweep: benchmarks × causal stacks.
func fig07Report(opts harness.Options) *Report {
	res := harness.Run(&harness.SweepSpec{
		Name:      "fig7",
		Workloads: nasWorkloads(fig07Specs),
		Stacks:    causalStacks,
	}, opts)
	t := &Table{
		Title:  "Figure 7: Piggybacked data as % of total exchanged application data",
		Header: stackHeader(causalStacks, "Benchmark", "#proc"),
		Notes: []string{
			"expected shape: EL columns are a small fraction of their no-EL counterparts;",
			"Vcausal piggybacks the most without EL; LogOn's bytes exceed Manetho's for the",
			"same events (flat encoding); LU.16 keeps a large residual even with EL (EL saturation)",
		},
	}
	specRows(t, res, fig07Specs, causalStacks, piggybackShare)
	return &Report{Tables: []*Table{t}, Sweeps: []*harness.Results{res}}
}

// piggybackShare renders a cell's piggybacked bytes as a percentage of its
// application bytes.
func piggybackShare(cr *harness.CellResult) string { return pct(cr.Stats.PiggybackShare()) }
