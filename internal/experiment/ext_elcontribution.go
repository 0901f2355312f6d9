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
var extELCStacks = stacksNamed("Vcausal (EL)", "Vcausal (no EL)", "Manetho (EL)", "Manetho (no EL)")

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

// extELCSweep is the grid both sizes share: one variant per storm trial,
// each faulted cell capped at extELCDivergence times its stack's
// fault-free time. Plans carry explicit seeds, so every stack of a
// (workload, trial) pair samples the identical storm — the EL/no-EL
// pairing compares outcomes under the same failure sequence.
func extELCSweep(name string, stacks []harness.Stack, trials int, workloads ...harness.Workload) faultedSweep {
	variants := make([]harness.Variant, trials)
	for i := range variants {
		variants[i] = harness.Variant{Key: fmt.Sprintf("storm-%d", i+1)}
	}
	return faultedSweep{
		SweepSpec: harness.SweepSpec{
			Name:      name,
			Workloads: workloads,
			Stacks:    stacks,
			Variants:  variants,
			BaseSeed:  2607,
			Probes: []string{
				harness.ProbeDetLossCount, harness.ProbeLostClockSpan,
				harness.ProbeKills, harness.ProbePlanKills,
			},
			Tune: func(c *harness.Cell) {
				if c.Workload.Key == witnessPair.Key {
					// The victim and its one witness fall in one correlated
					// kill: certain loss without an EL, certain recovery with
					// one.
					c.Config.Faults = &faultplan.Plan{
						Correlated: []faultplan.CorrelatedKill{{At: 8 * sim.Millisecond, Ranks: []int{0, 1}}},
					}
					return
				}
				var trial int // storm-N is trial N-1
				fmt.Sscanf(c.Variant.Key, "storm-%d", &trial)
				c.Config.Faults = extELCBurstStorm(c.Config.NP, trial-1)
			},
		},
		factor: extELCDivergence,
	}
}

func extELCFull() faultedSweep {
	return extELCSweep("ext-elcontribution", extELCStacks, 6,
		harness.Workload{Key: "bt.A.9x4", Spec: workload.Spec{Bench: "bt", Class: "A", NP: 9, IterScale: 4}, AppStateBytes: 1 << 20},
		harness.Workload{Key: "bt.A.16x4", Spec: workload.Spec{Bench: "bt", Class: "A", NP: 16, IterScale: 4}, AppStateBytes: 1 << 20})
}

// extELCSmoke is the CI-sized variant: the engineered witness-pair row
// loses determinants deterministically (CI asserts the outcome appears),
// while a short BT row exercises the stochastic storm path; Vcausal with
// and without the EL, two trials.
func extELCSmoke() faultedSweep {
	f := extELCSweep("ext-elcontribution-smoke", extELCStacks[:2], 2, witnessPair,
		harness.Workload{Key: "bt.A.9x2", Spec: workload.Spec{Bench: "bt", Class: "A", NP: 9, IterScale: 2}, AppStateBytes: 1 << 20})
	f.caps = map[string]sim.Time{witnessPair.Key: 30 * sim.Minute}
	return f
}

// extELContributionReport runs the full EL-contribution grid: fault-free
// baselines, then the correlated burst-storm trials; it tabulates the
// per-stack determinant-loss fraction.
func extELContributionReport(opts harness.Options) *Report { return extELCReport(extELCFull(), opts) }

// extELContributionSmokeReport is the CI-sized variant.
func extELContributionSmokeReport(opts harness.Options) *Report {
	return extELCReport(extELCSmoke(), opts)
}

func extELCReport(f faultedSweep, opts harness.Options) *Report {
	run, trials := f.run(opts), len(f.Variants)
	t := &Table{
		Title:  "EL contribution: determinant-loss fraction under correlated burst storms",
		Header: stackHeader(f.Stacks, "Workload"),
		Notes: []string{
			fmt.Sprintf("each cell: trials lost / %d storm trials (identical storm per trial across", trials),
			"stacks: Poisson bursts felling NP/4 adjacent ranks per arrival); 'div' counts",
			fmt.Sprintf("runs still pending at %dx the stack's fault-free time; a regressed", extELCDivergence),
			"incarnation re-creating determinant IDs is caught at merge or emission and",
			"counted as lost (conflict form) rather than corrupting causality silently",
			"expected shape: without the Event Logger, concurrent failures destroy every copy",
			"of some determinants (held only by crashed peers) and recovery reports a loss;",
			"with the EL the determinants survive on stable storage and runs keep completing —",
			"the paper's argument for the EL, quantified",
		},
	}
	for _, w := range f.Workloads {
		row := []string{w.Key}
		for _, st := range f.Stacks {
			lost, diverged := 0, 0
			for _, v := range f.Variants {
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
			cell := fmt.Sprintf("%d/%d lost", lost, trials)
			if diverged > 0 {
				cell += fmt.Sprintf(", %d div", diverged)
			}
			row = append(row, cell)
		}
		t.AddRow(row...)
	}
	return &Report{Tables: []*Table{t}, Sweeps: run.sweeps()}
}
