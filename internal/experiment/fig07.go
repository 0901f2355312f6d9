package experiment

import (
	"fmt"

	"mpichv/internal/harness"
	"mpichv/internal/workload"
)

// fig07Specs lists the benchmark/process-count grid of Figure 7.
var fig07Specs = []workload.Spec{
	{Bench: "bt", Class: "A", NP: 4}, {Bench: "bt", Class: "A", NP: 9}, {Bench: "bt", Class: "A", NP: 16},
	{Bench: "cg", Class: "A", NP: 2}, {Bench: "cg", Class: "A", NP: 4},
	{Bench: "cg", Class: "A", NP: 8}, {Bench: "cg", Class: "A", NP: 16},
	{Bench: "lu", Class: "A", NP: 2}, {Bench: "lu", Class: "A", NP: 4},
	{Bench: "lu", Class: "A", NP: 8}, {Bench: "lu", Class: "A", NP: 16},
}

// Fig07Report reproduces Figure 7: the total piggybacked causality
// data exchanged during BT, CG and LU class A, as a percentage of the total
// application data, for the three reduction techniques with and without
// Event Logger.
//
// It runs Figure 7 as one sweep: benchmarks × causal stacks.
func Fig07Report() *Report {
	res := sweep(&harness.SweepSpec{
		Name:      "fig7",
		Workloads: nasWorkloads(fig07Specs),
		Stacks:    causalStacks,
	})
	header := []string{"Benchmark", "#proc"}
	for _, sc := range causalStacks {
		header = append(header, sc.Label)
	}
	t := &Table{
		Title:  "Figure 7: Piggybacked data as % of total exchanged application data",
		Header: header,
		Notes: []string{
			"expected shape: EL columns are a small fraction of their no-EL counterparts;",
			"Vcausal piggybacks the most without EL; LogOn's bytes exceed Manetho's for the",
			"same events (flat encoding); LU.16 keeps a large residual even with EL (EL saturation)",
		},
	}
	for _, spec := range fig07Specs {
		row := []string{spec.Bench + "." + spec.Class, fmt.Sprintf("%d", spec.NP)}
		for _, sc := range causalStacks {
			cr := res.MustGet(spec.String(), sc.Label, "base")
			row = append(row, pct(cr.Stats.PiggybackShare()))
		}
		t.AddRow(row...)
	}
	return &Report{Name: "fig7", Table: t, Sweeps: []*harness.Results{res}}
}
