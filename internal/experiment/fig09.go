package experiment

import (
	"mpichv/internal/harness"
)

// fig09Groups lists the benchmark panels of Figure 9 with their process
// counts.
var fig09Groups = []benchGroup{
	{"cg", "A", []int{2, 4, 8, 16}},
	{"cg", "B", []int{2, 4, 8, 16}},
	{"mg", "A", []int{2, 4, 8, 16}},
	{"bt", "A", []int{4, 9, 16}},
	{"bt", "B", []int{4, 9, 16}},
	{"sp", "A", []int{4, 9, 16}},
	{"lu", "A", []int{2, 4, 8, 16}},
	{"ft", "A", []int{2, 4, 8, 16}},
}

// fig09Report reproduces Figure 9: NAS benchmark performance (Mflop/s) for
// MPICH-P4, MPICH-Vdummy and the three causal protocols with and without
// Event Logger.
//
// It runs Figure 9 as one sweep: the full NAS panel grid × every
// stack — the largest grid of the evaluation (27 workloads × 8 stacks).
func fig09Report(opts harness.Options) *Report {
	specs := groupSpecs(fig09Groups)
	res := harness.Run(&harness.SweepSpec{
		Name:      "fig9",
		Workloads: nasWorkloads(specs),
		Stacks:    allStacks,
	}, opts)
	t := &Table{
		Title:  "Figure 9: NAS benchmark performance (Mflop/s)",
		Header: stackHeader(allStacks, "Benchmark", "#proc"),
		Notes: []string{
			"expected shape: every protocol/benchmark improves with the EL; Vcausal+EL competes",
			"with the graph methods except at very high communication/computation ratios (LU.16);",
			"Vdummy can beat P4 where the pattern exploits full-duplex links",
		},
	}
	specRows(t, res, specs, allStacks, func(cr *harness.CellResult) string { return f1(cr.Mflops) })
	return &Report{Tables: []*Table{t}, Sweeps: []*harness.Results{res}}
}
