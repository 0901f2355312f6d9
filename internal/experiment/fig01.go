package experiment

import (
	"fmt"

	"mpichv/internal/cluster"
	"mpichv/internal/harness"
	"mpichv/internal/sim"
	"mpichv/internal/workload"
)

// fig01Stacks is Figure 1's protocol axis: the coordinated-checkpointing
// baseline against pessimistic and causal message logging (both with
// sender-based payload storage and the Event Logger).
var fig01Stacks = []harness.Stack{
	{Label: "Coordinated (Chandy-Lamport)", Stack: cluster.StackCoordinated},
	{Label: "Pessimistic (EL)", Stack: cluster.StackPessimistic, UseEL: true},
	{Label: "Causal (EL)", Stack: cluster.StackVcausal, Reducer: "vcausal", UseEL: true},
}

// divergenceFactor marks a run that did not finish within divergenceFactor
// times its fault-free duration: the protocol no longer makes progress at
// that fault frequency (the vertical slope in the paper's figure).
const divergenceFactor = 12

// fig01Intervals is the fault-frequency axis (0 = fault free).
var fig01Intervals = []sim.Time{0, 20 * sim.Second, 12 * sim.Second, 8 * sim.Second,
	5 * sim.Second, 3 * sim.Second}

// fig01Report reproduces Figure 1: the slowdown of NAS BT on 25
// nodes as the fault frequency increases, for coordinated checkpointing,
// pessimistic message logging and causal message logging.
//
// The skeleton's timeline is compressed relative to the paper's testbed
// (~40 s of virtual run instead of many minutes), so both the checkpoint
// image size and the fault-frequency axis are compressed with it; the
// reproduced result is the shape — coordinated checkpointing stops
// progressing at a fault frequency where message logging still runs, and
// causal logging tracks or beats pessimistic logging.
func fig01Report(opts harness.Options) *Report {
	f := fig01Sweep()
	run := f.run(opts)

	t := &Table{
		Title:  "Figure 1: Slowdown (%) of NAS BT.A on 25 nodes vs fault frequency",
		Header: stackHeader(fig01Stacks, "Faults/min"),
		Notes: []string{
			"100% = fault-free execution time of the same stack; 'diverged' = no completion",
			fmt.Sprintf("within %dx the fault-free time (the paper's vertical slope)", divergenceFactor),
			"expected shape: coordinated diverges at a much lower fault frequency than message",
			"logging; causal stays at or below pessimistic",
		},
	}
	for i, interval := range fig01Intervals {
		row := []string{faultsPerMinute(interval)}
		for _, st := range fig01Stacks {
			row = append(row, run.slowdown(fig01Workload().Key, st.Label, f.Variants[i].Key, nil))
		}
		t.AddRow(row...)
	}
	return &Report{Tables: []*Table{t}, Sweeps: run.sweeps()}
}

// fig01Sweep is Figure 1's grid: one variant per fault interval, each
// cell capped at divergenceFactor times its stack's fault-free time.
func fig01Sweep() faultedSweep {
	variants := make([]harness.Variant, len(fig01Intervals))
	for i, interval := range fig01Intervals {
		variants[i] = harness.Variant{
			Key:        fmt.Sprintf("fault-every-%d", int64(interval)),
			FaultEvery: interval,
		}
	}
	return faultedSweep{
		SweepSpec: harness.SweepSpec{
			Name:      "fig1-faulted",
			Workloads: []harness.Workload{fig01Workload()},
			Stacks:    fig01Stacks,
			Variants:  variants,
		},
		base:   "fig1-baseline",
		factor: divergenceFactor,
	}
}

// fig01Workload is BT.A.25 lengthened 8x (so several faults land per run)
// with the checkpoint image scaled to 1 MB per process, preserving the
// checkpoint-cost-to-runtime ratio on the compressed timeline.
func fig01Workload() harness.Workload {
	return harness.Workload{
		Key:           "bt.A.25x8",
		Spec:          workload.Spec{Bench: "bt", Class: "A", NP: 25, IterScale: 8},
		AppStateBytes: 1 << 20,
	}
}

func faultsPerMinute(interval sim.Time) string {
	if interval == 0 {
		return "0"
	}
	return fmt.Sprintf("%.0f", float64(sim.Minute)/float64(interval))
}
