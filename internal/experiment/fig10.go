package experiment

import (
	"fmt"

	"mpichv/internal/checkpoint"
	"mpichv/internal/cluster"
	"mpichv/internal/harness"
	"mpichv/internal/sim"
	"mpichv/internal/workload"
)

// fig10Groups lists Figure 10's benchmark/process grids.
var fig10Groups = []struct {
	Bench, Class string
	NPs          []int
}{
	{"bt", "A", []int{4, 9, 16, 25}},
	{"cg", "B", []int{2, 4, 8, 16}},
	{"lu", "A", []int{2, 4, 8, 16}},
}

// fig10Stacks is the Vcausal protocol with and without the Event Logger.
var fig10Stacks = []harness.Stack{
	{Label: "with EL", Stack: cluster.StackVcausal, Reducer: "vcausal", UseEL: true},
	{Label: "without EL", Stack: cluster.StackVcausal, Reducer: "vcausal", UseEL: false},
}

// fig10Specs flattens the grids into the sweep's workload axis.
func fig10Specs() []workload.Spec {
	var specs []workload.Spec
	for _, g := range fig10Groups {
		for _, np := range g.NPs {
			specs = append(specs, workload.Spec{Bench: g.Bench, Class: g.Class, NP: np})
		}
	}
	return specs
}

// Fig10Report reproduces Figure 10: the time (in milliseconds) to recover
// all determinants to replay when restarting rank 0 from the middle of the
// run, with the Event Logger (one query) and without it (reclaiming events
// from every surviving node).
//
// It runs Figure 10 as two sweeps: fault-free runs locate each
// cell's midpoint, then the crash grid kills rank 0 there and probes the
// measured determinant-collection time. No checkpoints are scheduled: the
// restarted process reclaims its complete event history, which is exactly
// the quantity Figure 10 reports ("time to recover all events to replay").
func Fig10Report() *Report {
	specs := fig10Specs()
	workloads := nasWorkloads(specs)
	stacks := fig10Stacks

	free := sweep(&harness.SweepSpec{
		Name:      "fig10-baseline",
		Workloads: workloads,
		Stacks:    stacks,
		Variants:  []harness.Variant{{Key: "fault-free"}},
	})

	crashed := sweep(&harness.SweepSpec{
		Name:      "fig10-crash",
		Workloads: workloads,
		Stacks:    stacks,
		Variants: []harness.Variant{{
			Key:          "mid-crash",
			CkptPolicy:   checkpoint.PolicyNone,
			RestartDelay: 100 * sim.Millisecond,
		}},
		Probes: []string{harness.ProbeRecoveryEventNs},
		Tune: func(c *harness.Cell) {
			// Kill rank 0 at the midpoint of this cell's fault-free run.
			c.FaultAt = free.MustGet(c.Workload.Key, c.Stack.Label, "fault-free").Elapsed / 2
		},
	})

	t := &Table{
		Title:  "Figure 10: Time to recover all events to replay, Vcausal (milliseconds)",
		Header: []string{"Benchmark", "#proc", "with EL", "without EL", "EL/noEL"},
		Notes: []string{
			"expected shape: with EL an order of magnitude faster and nearly flat in process",
			"count; without EL the cost explodes as every survivor must be drained",
			"(paper CG: +18.7% from 2→16 nodes with EL versus +930% without)",
		},
	}
	for _, spec := range specs {
		row := []string{spec.Bench + "." + spec.Class, fmt.Sprintf("%d", spec.NP)}
		var both [2]float64
		for i, sc := range fig10Stacks {
			cr := crashed.MustGet(spec.String(), sc.Label, "mid-crash")
			both[i] = cr.Probes[harness.ProbeRecoveryEventNs]
			row = append(row, fmt.Sprintf("%.3f", both[i]/float64(sim.Millisecond)))
		}
		row = append(row, pct(both[0]/both[1]))
		t.AddRow(row...)
	}
	return &Report{Name: "fig10", Table: t, Sweeps: []*harness.Results{free, crashed}}
}
