package experiment

import (
	"fmt"

	"mpichv/internal/cluster"
	"mpichv/internal/faultplan"
	"mpichv/internal/harness"
	"mpichv/internal/sim"
	"mpichv/internal/workload"
)

// The EL-contribution extension quantifies the paper's central claim from
// the failure side: causal message logging *without* an Event Logger loses
// determinants under concurrent failures (every copy was held by crashed
// peers), while the same protocol *with* the EL keeps recovering. Each
// storm trial fells groups of adjacent ranks — communication partners on
// the BT grid — in the same instant; the table reports, per stack, the
// fraction of trials that ended in determinant loss.

// extELCStacks pairs each reducer with and without the Event Logger so the
// loss fractions isolate the EL's contribution.
var extELCStacks = []harness.Stack{causalStacks[0], causalStacks[3], causalStacks[1], causalStacks[4]}

// extELCWorkload is one row of the grid: a workload plus its per-trial
// fault plan and run budget.
type extELCWorkload struct {
	w harness.Workload
	// planFor builds trial i's fault plan for the row's NP. Plans carry
	// explicit seeds, so every stack of a (workload, trial) pair samples
	// the identical storm — the EL/no-EL pairing compares outcomes under
	// the same failure sequence.
	planFor func(np, trial int) *faultplan.Plan
	// maxVirtual fixes the faulted cells' cap; 0 derives it from the
	// stack's fault-free baseline (× extELCDivergence).
	maxVirtual sim.Time
}

// extELCConfig sizes one EL-contribution run; the full experiment and the
// CI smoke variant share the machinery.
type extELCConfig struct {
	name      string
	workloads []extELCWorkload
	stacks    []harness.Stack
	trials    int
}

// extELCDivergence caps a storm run at this multiple of the stack's own
// fault-free duration.
const extELCDivergence = 8

// extELCBurstStorm builds trial i's stochastic storm for an NP-rank
// deployment: Poisson bursts felling a quarter of the machine (adjacent
// ranks — BT communication partners) per arrival.
func extELCBurstStorm(np, trial int) *faultplan.Plan {
	burst := np / 4
	if burst < 2 {
		burst = 2
	}
	return &faultplan.Plan{
		Seed: int64(7001 + trial),
		Storms: []faultplan.Storm{{
			Poisson: true, MeanInterval: 3 * sim.Second,
			Burst: burst, Victims: faultplan.VictimRoundRobin,
			Start: 2 * sim.Second,
			// Six bursts per trial: arrivals tight enough that later
			// bursts land while earlier recoveries are still in flight
			// (the loss-generating regime), while still bounding how long
			// a no-EL deployment (whose causality state only grows) is
			// kept under fire — an endless storm on a 16-rank no-EL stack
			// never converges.
			MaxKills: 6 * burst,
		}},
	}
}

// extELCWitnessKill is the deterministic minimal scenario (used by the CI
// smoke): the victim's determinants have exactly one witness, and a
// correlated kill fells both — certain loss without an EL, certain
// recovery with one.
func extELCWitnessKill(_, _ int) *faultplan.Plan {
	return &faultplan.Plan{
		Correlated: []faultplan.CorrelatedKill{{At: 8 * sim.Millisecond, Ranks: []int{0, 1}}},
	}
}

// extELCLossWorkload wraps the shared minimal determinant-loss topology
// (see workload.BuildWitnessPair) for the sweep grid.
func extELCLossWorkload() harness.Workload {
	return harness.Workload{
		Key:  "witness-pair.3",
		Make: func() *workload.Instance { return workload.BuildWitnessPair(40) },
	}
}

func extELCFull() extELCConfig {
	return extELCConfig{
		name: "ext-elcontribution",
		workloads: []extELCWorkload{
			{w: harness.Workload{Key: "bt.A.9x4", Spec: workload.Spec{Bench: "bt", Class: "A", NP: 9, IterScale: 4}, AppStateBytes: 1 << 20}, planFor: extELCBurstStorm},
			{w: harness.Workload{Key: "bt.A.16x4", Spec: workload.Spec{Bench: "bt", Class: "A", NP: 16, IterScale: 4}, AppStateBytes: 1 << 20}, planFor: extELCBurstStorm},
		},
		stacks: extELCStacks,
		trials: 6,
	}
}

func extELCSmoke() extELCConfig {
	return extELCConfig{
		name: "ext-elcontribution-smoke",
		workloads: []extELCWorkload{
			// The engineered witness-pair scenario loses determinants
			// deterministically (CI asserts the outcome appears), while a
			// short BT row exercises the stochastic storm path.
			{w: extELCLossWorkload(), planFor: extELCWitnessKill, maxVirtual: 30 * sim.Minute},
			{w: harness.Workload{Key: "bt.A.9x2", Spec: workload.Spec{Bench: "bt", Class: "A", NP: 9, IterScale: 2}, AppStateBytes: 1 << 20}, planFor: extELCBurstStorm},
		},
		stacks: extELCStacks[:2], // Vcausal with and without EL
		trials: 2,
	}
}

// extELContributionReport runs the full EL-contribution grid: fault-free
// baselines, then the correlated burst-storm trials; it tabulates the
// per-stack determinant-loss fraction.
func extELContributionReport() *Report { return extELCReport(extELCFull()) }

// extELContributionSmokeReport is the CI-sized variant: the deterministic
// witness-pair loss scenario plus one short BT storm row, Vcausal only.
func extELContributionSmokeReport() *Report { return extELCReport(extELCSmoke()) }

func extELCReport(cfg extELCConfig) *Report {
	// One variant per trial; the plan and cap resolve per workload.
	variants := make([]harness.Variant, cfg.trials)
	for i := range variants {
		variants[i] = harness.Variant{Key: fmt.Sprintf("storm-%d", i+1)}
	}
	workloads := make([]harness.Workload, len(cfg.workloads))
	rows := make(map[string]extELCWorkload)
	caps := make(map[string]sim.Time)
	for i, ew := range cfg.workloads {
		workloads[i] = ew.w
		rows[ew.w.Key] = ew
		caps[ew.w.Key] = ew.maxVirtual
	}
	run := faultedSweep{
		name:      cfg.name,
		workloads: workloads,
		stacks:    cfg.stacks,
		seed:      2607,
		probes: []string{
			harness.ProbeDetLossCount, harness.ProbeLostClockSpan,
			harness.ProbeKills, harness.ProbePlanKills,
		},
		variants: variants,
		planFor: func(w harness.Workload, np, trial int) *faultplan.Plan {
			return rows[w.Key].planFor(np, trial)
		},
		factor: extELCDivergence,
		caps:   caps,
	}.run()

	t := &Table{
		Title:  "EL contribution: determinant-loss fraction under correlated burst storms",
		Header: stackHeader(cfg.stacks, "Workload"),
		Notes: []string{
			fmt.Sprintf("each cell: trials lost / %d storm trials (identical storm per trial across", cfg.trials),
			"stacks: Poisson bursts felling NP/4 adjacent ranks per arrival); 'div' counts",
			fmt.Sprintf("runs still pending at %dx the stack's fault-free time; a regressed", extELCDivergence),
			"incarnation re-creating determinant IDs is caught at graph-merge time and",
			"counted as lost (conflict form) rather than corrupting causality silently",
			"expected shape: without the Event Logger, concurrent failures destroy every copy",
			"of some determinants (held only by crashed peers) and recovery reports a loss;",
			"with the EL the determinants survive on stable storage and runs keep completing —",
			"the paper's argument for the EL, quantified",
		},
	}
	for _, w := range workloads {
		row := []string{w.Key}
		for _, st := range cfg.stacks {
			lost, diverged := 0, 0
			for _, v := range variants {
				cr := run.faulted.Get(w.Key, st.Label, v.Key)
				switch {
				case cr == nil:
					diverged++
				case cr.Outcome == cluster.OutcomeDeterminantLoss:
					lost++
				case cr.Err != "" || !cr.Completed:
					diverged++
				}
			}
			cell := fmt.Sprintf("%d/%d lost", lost, cfg.trials)
			if diverged > 0 {
				cell += fmt.Sprintf(", %d div", diverged)
			}
			row = append(row, cell)
		}
		t.AddRow(row...)
	}
	return &Report{Name: cfg.name, Table: t, Sweeps: run.sweeps()}
}
