package experiment

import (
	"fmt"

	"mpichv/internal/harness"
	"mpichv/internal/sim"
)

// fig08Specs is Figure 7's grid plus FT.
var fig08Specs = groupSpecs(append(fig07Groups[:3:3], benchGroup{"ft", "A", []int{2, 4, 8, 16}}))

// fig08Report reproduces Figure 8 from one sweep (benchmarks × causal
// stacks): 8(a) is the cumulative virtual CPU time spent preparing
// piggybacks at send and integrating them at receive, per protocol, with
// and without Event Logger (seconds; send/recv split); 8(b) is the same
// causality-management time as a percentage of total execution time.
func fig08Report(opts harness.Options) *Report {
	res := harness.Run(&harness.SweepSpec{
		Name:      "fig8",
		Workloads: nasWorkloads(fig08Specs),
		Stacks:    causalStacks,
	}, opts)
	header := []string{"Benchmark", "#proc"}
	for _, sc := range causalStacks {
		header = append(header, sc.Label+" send", sc.Label+" recv")
	}
	a := &Table{
		Title:  "Figure 8(a): Time to manage piggyback information (seconds, send/recv)",
		Header: header,
		Notes: []string{
			"expected shape: Vcausal cheapest; LogOn pays more at send (reorder), Manetho more",
			"at receive; without EL every protocol's cost grows with the uncollected graph;",
			"LogOn loses to Manetho on LU without EL (many large piggybacks to sort)",
		},
	}
	specRows(a, res, fig08Specs, causalStacks,
		func(cr *harness.CellResult) string { return fmt.Sprintf("%.4g", cr.Stats.SendPiggybackTime.Seconds()) },
		func(cr *harness.CellResult) string { return fmt.Sprintf("%.4g", cr.Stats.RecvPiggybackTime.Seconds()) })
	b := &Table{
		Title:  "Figure 8(b): Causality computation cost in % of total execution time",
		Header: stackHeader(causalStacks, "Benchmark", "#proc"),
		Notes: []string{
			"expected shape: near zero with EL at small scale; grows with both process count",
			"and message rate; largest for LU.16 without EL (paper: up to 41.5%)",
		},
	}
	specRows(b, res, fig08Specs, causalStacks, func(cr *harness.CellResult) string {
		total := cr.Elapsed * sim.Time(cr.NP)
		return pct(float64(cr.Stats.SendPiggybackTime+cr.Stats.RecvPiggybackTime) / float64(total))
	})
	return &Report{Tables: []*Table{a, b}, Sweeps: []*harness.Results{res}}
}
