package experiment

import (
	"fmt"

	"mpichv/internal/checkpoint"
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

// Fig01Report reproduces Figure 1: the slowdown of NAS BT on 25
// nodes as the fault frequency increases, for coordinated checkpointing,
// pessimistic message logging and causal message logging.
//
// The skeleton's timeline is compressed relative to the paper's testbed
// (~40 s of virtual run instead of many minutes), so both the checkpoint
// image size and the fault-frequency axis are compressed with it; the
// reproduced result is the shape — coordinated checkpointing stops
// progressing at a fault frequency where message logging still runs, and
// causal logging tracks or beats pessimistic logging.
//
// It runs Figure 1 as two sweeps: fault-free baselines first,
// then the fault-frequency grid with each cell's divergence cap derived
// from its stack's baseline.
func Fig01Report() *Report {
	stacks := fig01Stacks
	base := fig01Spec("fig1-baseline", []harness.Variant{{Key: "fault-free"}}, nil)
	baseRes := sweep(base)

	baseline := make(map[string]sim.Time, len(stacks))
	for _, st := range stacks {
		baseline[st.Label] = baseRes.MustGet(fig01Workload().Key, st.Label, "fault-free").Elapsed
	}

	variants := make([]harness.Variant, len(fig01Intervals))
	for i, interval := range fig01Intervals {
		variants[i] = harness.Variant{
			Key:        fmt.Sprintf("fault-every-%d", int64(interval)),
			FaultEvery: interval,
		}
	}
	faulted := fig01Spec("fig1-faulted", variants, func(c *harness.Cell) {
		// The divergence cap is per stack: divergenceFactor times that
		// stack's own fault-free duration.
		c.MaxVirtual = baseline[c.Stack.Label] * divergenceFactor
	})
	faultedRes := sweep(faulted)

	header := []string{"Faults/min"}
	for _, sc := range fig01Stacks {
		header = append(header, sc.Label)
	}
	t := &Table{
		Title:  "Figure 1: Slowdown (%) of NAS BT.A on 25 nodes vs fault frequency",
		Header: header,
		Notes: []string{
			"100% = fault-free execution time of the same stack; 'diverged' = no completion",
			fmt.Sprintf("within %dx the fault-free time (the paper's vertical slope)", divergenceFactor),
			"expected shape: coordinated diverges at a much lower fault frequency than message",
			"logging; causal stays at or below pessimistic",
		},
	}
	for i, interval := range fig01Intervals {
		row := []string{faultsPerMinute(interval)}
		for _, st := range stacks {
			cr := faultedRes.Get(fig01Workload().Key, st.Label, variants[i].Key)
			if cr == nil || cr.Err != "" || !cr.Completed {
				row = append(row, "diverged")
				continue
			}
			row = append(row, f1(100*float64(cr.Elapsed)/float64(baseline[st.Label])))
		}
		t.AddRow(row...)
	}
	return &Report{Name: "fig1", Table: t, Sweeps: []*harness.Results{baseRes, faultedRes}}
}

// fig01Spec assembles one Figure 1 sweep phase over the shared workload
// and stack axes; tune (optional) runs after the per-stack checkpoint
// configuration is applied.
func fig01Spec(name string, variants []harness.Variant, tune func(*harness.Cell)) *harness.SweepSpec {
	return &harness.SweepSpec{
		Name:       name,
		Workloads:  []harness.Workload{fig01Workload()},
		Stacks:     fig01Stacks,
		Variants:   variants,
		MaxVirtual: 100 * sim.Minute,
		Tune: func(c *harness.Cell) {
			c.Config.CkptPolicy = fig01PolicyFor(c.Stack.Stack)
			c.Config.CkptInterval = fig01CkptInterval(c.Stack.Stack, c.Config.NP)
			c.Config.RestartDelay = 250 * sim.Millisecond
			if tune != nil {
				tune(c)
			}
		},
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

func fig01PolicyFor(stack string) checkpoint.Policy {
	if stack == cluster.StackCoordinated {
		return checkpoint.PolicyCoordinated
	}
	return checkpoint.PolicyRoundRobin
}

// fig01CkptInterval gives every stack the same per-process checkpoint
// period.
func fig01CkptInterval(stack string, np int) sim.Time {
	const period = 10 * sim.Second
	if stack == cluster.StackCoordinated {
		return period
	}
	return period / sim.Time(np)
}

func faultsPerMinute(interval sim.Time) string {
	if interval == 0 {
		return "0"
	}
	return fmt.Sprintf("%.0f", float64(sim.Minute)/float64(interval))
}
