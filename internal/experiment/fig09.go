package experiment

import (
	"fmt"

	"mpichv/internal/harness"
	"mpichv/internal/workload"
)

// fig09Groups lists the benchmark panels of Figure 9 with their process
// counts.
var fig09Groups = []struct {
	Bench, Class string
	NPs          []int
}{
	{"cg", "A", []int{2, 4, 8, 16}},
	{"cg", "B", []int{2, 4, 8, 16}},
	{"mg", "A", []int{2, 4, 8, 16}},
	{"bt", "A", []int{4, 9, 16}},
	{"bt", "B", []int{4, 9, 16}},
	{"sp", "A", []int{4, 9, 16}},
	{"lu", "A", []int{2, 4, 8, 16}},
	{"ft", "A", []int{2, 4, 8, 16}},
}

// fig09Specs flattens the panels into the sweep's workload axis.
func fig09Specs() []workload.Spec {
	var specs []workload.Spec
	for _, g := range fig09Groups {
		for _, np := range g.NPs {
			specs = append(specs, workload.Spec{Bench: g.Bench, Class: g.Class, NP: np})
		}
	}
	return specs
}

// Fig09Report reproduces Figure 9: NAS benchmark performance (Mflop/s) for
// MPICH-P4, MPICH-Vdummy and the three causal protocols with and without
// Event Logger.
//
// It runs Figure 9 as one sweep: the full NAS panel grid × every
// stack — the largest grid of the evaluation (27 workloads × 8 stacks).
func Fig09Report() *Report {
	specs := fig09Specs()
	res := sweep(&harness.SweepSpec{
		Name:      "fig9",
		Workloads: nasWorkloads(specs),
		Stacks:    allStacks,
	})
	header := []string{"Benchmark", "#proc"}
	for _, sc := range allStacks {
		header = append(header, sc.Label)
	}
	t := &Table{
		Title:  "Figure 9: NAS benchmark performance (Mflop/s)",
		Header: header,
		Notes: []string{
			"expected shape: every protocol/benchmark improves with the EL; Vcausal+EL competes",
			"with the graph methods except at very high communication/computation ratios (LU.16);",
			"Vdummy can beat P4 where the pattern exploits full-duplex links",
		},
	}
	for _, spec := range specs {
		row := []string{spec.Bench + "." + spec.Class, fmt.Sprintf("%d", spec.NP)}
		for _, sc := range allStacks {
			cr := res.MustGet(spec.String(), sc.Label, "base")
			row = append(row, f1(cr.Mflops))
		}
		t.AddRow(row...)
	}
	return &Report{Name: "fig9", Table: t, Sweeps: []*harness.Results{res}}
}
