package experiment

import (
	"fmt"
	"sync"

	"mpichv/internal/harness"
	"mpichv/internal/sim"
	"mpichv/internal/workload"
)

// fig08Specs lists the benchmark/process-count grid of Figure 8.
var fig08Specs = []workload.Spec{
	{Bench: "bt", Class: "A", NP: 4}, {Bench: "bt", Class: "A", NP: 9}, {Bench: "bt", Class: "A", NP: 16},
	{Bench: "cg", Class: "A", NP: 2}, {Bench: "cg", Class: "A", NP: 4},
	{Bench: "cg", Class: "A", NP: 8}, {Bench: "cg", Class: "A", NP: 16},
	{Bench: "lu", Class: "A", NP: 2}, {Bench: "lu", Class: "A", NP: 4},
	{Bench: "lu", Class: "A", NP: 8}, {Bench: "lu", Class: "A", NP: 16},
	{Bench: "ft", Class: "A", NP: 2}, {Bench: "ft", Class: "A", NP: 4},
	{Bench: "ft", Class: "A", NP: 8}, {Bench: "ft", Class: "A", NP: 16},
}

// fig08Sweep runs the Figure 8 grid (benchmarks × causal stacks) once per
// process: 8(a) and 8(b) are two renderings of the same 90 deterministic
// cells, so regenerating both shares one sweep instead of simulating the
// grid twice.
var fig08Sweep = sync.OnceValue(func() *harness.Results {
	return sweep(&harness.SweepSpec{
		Name:      "fig8",
		Workloads: nasWorkloads(fig08Specs),
		Stacks:    causalStacks,
	})
})

// Fig08aReport reproduces Figure 8(a): cumulative virtual CPU time
// spent preparing piggybacks at send and integrating them at receive, per
// protocol, with and without Event Logger (seconds; send/recv split).
func Fig08aReport() *Report {
	res := fig08Sweep()
	header := []string{"Benchmark", "#proc"}
	for _, sc := range causalStacks {
		header = append(header, sc.Label+" send", sc.Label+" recv")
	}
	t := &Table{
		Title:  "Figure 8(a): Time to manage piggyback information (seconds, send/recv)",
		Header: header,
		Notes: []string{
			"expected shape: Vcausal cheapest; LogOn pays more at send (reorder), Manetho more",
			"at receive; without EL every protocol's cost grows with the uncollected graph;",
			"LogOn loses to Manetho on LU without EL (many large piggybacks to sort)",
		},
	}
	for _, spec := range fig08Specs {
		row := []string{spec.Bench + "." + spec.Class, fmt.Sprintf("%d", spec.NP)}
		for _, sc := range causalStacks {
			cr := res.MustGet(spec.String(), sc.Label, "base")
			row = append(row,
				fmt.Sprintf("%.4g", cr.Stats.SendPiggybackTime.Seconds()),
				fmt.Sprintf("%.4g", cr.Stats.RecvPiggybackTime.Seconds()))
		}
		t.AddRow(row...)
	}
	return &Report{Name: "fig8a", Table: t, Sweeps: []*harness.Results{res}}
}

// Fig08bReport reproduces Figure 8(b): causality-management time as
// a percentage of total execution time.
func Fig08bReport() *Report {
	res := fig08Sweep()
	header := []string{"Benchmark", "#proc"}
	for _, sc := range causalStacks {
		header = append(header, sc.Label)
	}
	t := &Table{
		Title:  "Figure 8(b): Causality computation cost in % of total execution time",
		Header: header,
		Notes: []string{
			"expected shape: near zero with EL at small scale; grows with both process count",
			"and message rate; largest for LU.16 without EL (paper: up to 41.5%)",
		},
	}
	for _, spec := range fig08Specs {
		row := []string{spec.Bench + "." + spec.Class, fmt.Sprintf("%d", spec.NP)}
		for _, sc := range causalStacks {
			cr := res.MustGet(spec.String(), sc.Label, "base")
			total := cr.Elapsed * sim.Time(spec.NP)
			share := float64(cr.Stats.SendPiggybackTime+cr.Stats.RecvPiggybackTime) / float64(total)
			row = append(row, pct(share))
		}
		t.AddRow(row...)
	}
	return &Report{Name: "fig8b", Table: t, Sweeps: []*harness.Results{res}}
}
