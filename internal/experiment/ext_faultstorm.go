package experiment

import (
	"fmt"

	"mpichv/internal/cluster"
	"mpichv/internal/failure"
	"mpichv/internal/faultplan"
	"mpichv/internal/harness"
	"mpichv/internal/sim"
	"mpichv/internal/workload"
)

// extFaultstormStacks is the protocol axis of the fault-storm extension:
// the three causal reducers and the pessimistic baseline (all with the
// Event Logger) against coordinated checkpointing.
var extFaultstormStacks = append(elStacks,
	harness.Stack{Label: "Pessimistic (EL)", Stack: cluster.StackPessimistic, UseEL: true},
	harness.Stack{Label: "Coordinated (C/L)", Stack: cluster.StackCoordinated},
)

// extFaultstormDivergence caps a scenario run at this multiple of the
// stack's own fault-free duration; a run still pending then is reported as
// diverged.
const extFaultstormDivergence = 8

// extFaultstormScenarios are the fault environments, each exercising a
// different scenario shape of the faultplan engine. Plans are shared
// read-only across every cell; each cell samples them with its own derived
// seed.
var extFaultstormScenarios = []harness.Variant{
	{
		// Independent faults arriving as a Poisson process across random
		// ranks — the paper's Figure 1 regime pushed to overlapping
		// failures.
		Key: "poisson-storm",
		Faults: &faultplan.Plan{
			Storms: []faultplan.Storm{{
				Poisson: true, MeanInterval: 8 * sim.Second,
				Victims: faultplan.VictimRandom,
			}},
		},
	},
	{
		// Shared failure domains: one three-rank kill (a switch) and a
		// later two-rank kill (a power rail).
		Key: "correlated",
		Faults: &faultplan.Plan{
			Correlated: []faultplan.CorrelatedKill{
				{At: 12 * sim.Second, Ranks: []int{0, 1, 2}},
				{At: 30 * sim.Second, Ranks: []int{3, 4}},
			},
		},
	},
	{
		// A seed fault whose recovery completion keeps triggering
		// follow-on faults on other ranks.
		Key: "cascade",
		Faults: &faultplan.Plan{
			Correlated: []faultplan.CorrelatedKill{{At: 10 * sim.Second, Ranks: []int{0}}},
			Cascades: []faultplan.Cascade{{
				Trigger:     faultplan.OnRecovered,
				Delay:       100 * sim.Millisecond,
				Probability: 0.6,
				MaxFires:    4,
			}},
		},
	},
	{
		// Faults aimed at the recovery path itself: a re-kill landing
		// inside rank 0's restart window (extending it under the gen
		// guard) and a second fault on rank 1 while rank 0 is still
		// executing its recovery procedure.
		Key: "recovery-overlap",
		Faults: &faultplan.Plan{
			Correlated: []faultplan.CorrelatedKill{{At: 10 * sim.Second, Ranks: []int{0}}},
			Cascades: []faultplan.Cascade{
				{
					Trigger: faultplan.OnKill, OfRank: faultplan.OnlyRank(0),
					Delay:   failure.DefaultRestartDelay / 2,
					Victims: faultplan.VictimFixed, Rank: 0,
					MaxFires: 1,
				},
				{
					Trigger: faultplan.OnRestart, OfRank: faultplan.OnlyRank(0),
					Delay:   sim.Millisecond,
					Victims: faultplan.VictimFixed, Rank: 1,
					MaxFires: 2,
				},
			},
		},
	},
	{
		// A milder storm with the stable services knocked out mid-run:
		// the Event Logger outage stalls acknowledgments (piggybacks
		// regrow), the checkpoint-server outage stalls stores and
		// recovery fetches.
		Key: "storm-outage",
		Faults: &faultplan.Plan{
			Storms: []faultplan.Storm{{
				Poisson: true, MeanInterval: 12 * sim.Second,
				Victims: faultplan.VictimRoundRobin,
			}},
			Outages: []faultplan.Outage{
				{Target: faultplan.OutageEventLogger, At: 15 * sim.Second, Duration: 2 * sim.Second},
				{Target: faultplan.OutageCkptServer, At: 25 * sim.Second, Duration: 2 * sim.Second},
			},
		},
	},
}

// extFaultstormReport compares the fault-tolerance stacks under overlapping
// failures: Poisson fault storms, correlated multi-rank kills, recovery-
// triggered cascades, faults aimed into restart/recovery windows, and
// stable-service outages.
func extFaultstormReport(opts harness.Options) *Report {
	run := faultedSweep{
		SweepSpec: harness.SweepSpec{
			Name:      "ext-faultstorm",
			Workloads: []harness.Workload{extFaultstormWorkload()},
			Stacks:    extFaultstormStacks,
			Variants:  extFaultstormScenarios,
			BaseSeed:  1905, // each cell samples its plans from its own derived seed
			Probes:    []string{harness.ProbeKills, harness.ProbeRestarts, harness.ProbePlanKills},
		},
		factor: extFaultstormDivergence,
	}.run(opts)

	t := &Table{
		Title:  "Fault storms: slowdown (%) of NAS BT.A on 9 nodes under overlapping failures",
		Header: stackHeader(extFaultstormStacks, "Scenario"),
		Notes: []string{
			"100% = fault-free execution time of the same stack; 'diverged' = no completion",
			fmt.Sprintf("within %dx the fault-free time; cells show slowdown (faults injected)",
				extFaultstormDivergence),
			"scenarios: Poisson storm across random ranks; correlated multi-rank kills;",
			"recovery-triggered cascades; re-kills inside restart/recovery windows; a storm",
			"with Event Logger and checkpoint-server outages",
			"expected shape: message logging absorbs overlapping faults with bounded slowdown;",
			"coordinated checkpointing pays a rollback-all per fault and degrades first",
		},
	}
	kills := func(cr *harness.CellResult) string {
		return fmt.Sprintf(" (%d)", int64(cr.Probes[harness.ProbeKills]))
	}
	for _, v := range extFaultstormScenarios {
		row := []string{v.Key}
		for _, st := range extFaultstormStacks {
			row = append(row, run.slowdown(extFaultstormWorkload().Key, st.Label, v.Key, kills))
		}
		t.AddRow(row...)
	}
	return &Report{Tables: []*Table{t}, Sweeps: run.sweeps()}
}

// extFaultstormWorkload is BT.A.9 lengthened 4x with a 1 MB checkpoint
// image, so several faults land per run on the compressed timeline.
func extFaultstormWorkload() harness.Workload {
	return harness.Workload{
		Key:           "bt.A.9x4",
		Spec:          workload.Spec{Bench: "bt", Class: "A", NP: 9, IterScale: 4},
		AppStateBytes: 1 << 20,
	}
}
