package experiment

import (
	"fmt"

	"mpichv/internal/faultplan"
	"mpichv/internal/harness"
	"mpichv/internal/sim"
	"mpichv/internal/workload"
)

// The partition extension compares the causal stacks under network faults
// the paper never exercises: crash-stop kills against partitions that
// suspend a live endpoint, transient blackouts the detector rides out,
// false suspicions where the detector fences a live rank and the healed
// link releases the stale incarnation's traffic, degraded (slow, jittery)
// links, and stochastic restart-delay distributions. A partitioned-but-
// alive rank is indistinguishable from a crashed one at the detector, so
// recovery correctness hinges on the incarnation fence — the scenario the
// paper's fail-stop assumption hides.

// extPartitionDivergence caps a scenario run at this multiple of the
// stack's fault-free duration.
const extPartitionDivergence = 8

// extPartitionScenarios are the fault environments; every partition
// isolates rank 0 (isolateRank0).
func extPartitionScenarios(np int) []harness.Variant {
	return []harness.Variant{
		{
			// Crash-stop baseline: the same victim simply dies once.
			Key: "kill",
			Faults: &faultplan.Plan{
				Correlated: []faultplan.CorrelatedKill{{At: 10 * sim.Second, Ranks: []int{0}}},
			},
		},
		{
			// Transient blackout: the partition heals before the detector's
			// patience runs out — no kill, no recovery, a pure stall with
			// every held delivery released on heal.
			Key: "blackout",
			Faults: &faultplan.Plan{
				Partitions: []faultplan.Partition{{
					At:       10 * sim.Second,
					Groups:   isolateRank0(np),
					Duration: 300 * sim.Millisecond,
				}},
			},
		},
		{
			// False suspicion: the partition outlasts the detector (suspect
			// 400 ms in), the victim's replacement spawns at 650 ms and
			// starts recovering, and the link heals at 800 ms — after
			// recovery began — releasing the fenced stale incarnation's
			// traffic into the survivors.
			Key: "false-suspect",
			Faults: &faultplan.Plan{
				Partitions: []faultplan.Partition{{
					At:           10 * sim.Second,
					Groups:       isolateRank0(np),
					Duration:     800 * sim.Millisecond,
					SuspectAfter: 400 * sim.Millisecond,
				}},
			},
		},
		{
			// Degraded link: the rank 0 <-> rank 1 pair runs at a quarter of
			// its bandwidth with 4x latency and 100 us of jitter for 20 s.
			Key: "degraded-link",
			Faults: &faultplan.Plan{
				Degrades: []faultplan.DegradeLink{{
					At: 5 * sim.Second, From: 0, To: 1, Both: true,
					LatencyFactor: 4, BandwidthFactor: 0.25,
					Jitter: 100 * sim.Microsecond, Duration: 20 * sim.Second,
				}},
			},
		},
		{
			// Stochastic restart delays: a mild uniform storm whose every
			// fault draws its detection+relaunch time from a uniform
			// distribution instead of the deployment constant.
			Key: "restart-jitter",
			Faults: &faultplan.Plan{
				Storms: []faultplan.Storm{{
					MinInterval: 6 * sim.Second, MaxInterval: 10 * sim.Second,
					Victims: faultplan.VictimRoundRobin, MaxKills: 4,
				}},
				RestartDelay: faultplan.DelayDist{Min: 100 * sim.Millisecond, Max: 600 * sim.Millisecond},
			},
		},
	}
}

// isolateRank0 is the partition group layout of every partition scenario:
// rank 0 alone against the rest of the machine. The stable servers stay
// on the dispatcher's side of the cut.
func isolateRank0(np int) [][]int {
	rest := make([]int, 0, np-1)
	for r := 1; r < np; r++ {
		rest = append(rest, r)
	}
	return [][]int{{0}, rest}
}

// extPartitionSweep is the grid both sizes share: the scenarios resolved
// at each workload's NP, each faulted cell capped at
// extPartitionDivergence times its stack's fault-free time.
func extPartitionSweep(name string, stacks []harness.Stack, scenarios func(np int) []harness.Variant, workloads ...harness.Workload) faultedSweep {
	variants, tune := perNP(workloads[0].NP(), scenarios)
	return faultedSweep{
		SweepSpec: harness.SweepSpec{
			Name:      name,
			Workloads: workloads,
			Stacks:    stacks,
			Variants:  variants,
			BaseSeed:  2905,
			Probes: []string{
				harness.ProbePartitionCount, harness.ProbeBlackoutSpan,
				harness.ProbeFalseSuspicions, harness.ProbeFencedStale,
				harness.ProbeHeldDeliveries,
				harness.ProbeKills, harness.ProbePlanKills,
				harness.ProbeMTTR, harness.ProbeDowntime,
				harness.ProbeAvailability,
			},
			Tune: tune,
		},
		factor: extPartitionDivergence,
	}
}

func extPartitionFull() faultedSweep {
	return extPartitionSweep("ext-partition", elStacks, extPartitionScenarios,
		harness.Workload{Key: "bt.A.9x4", Spec: workload.Spec{Bench: "bt", Class: "A", NP: 9, IterScale: 4}, AppStateBytes: 1 << 20},
		harness.Workload{Key: "bt.A.16x4", Spec: workload.Spec{Bench: "bt", Class: "A", NP: 16, IterScale: 4}, AppStateBytes: 1 << 20})
}

// extPartitionSmoke is the CI-sized variant: the witness-pair topology
// with a compressed timeline and a 3 ms restart delay, deterministic
// across worker-pool widths, guaranteed to exercise a confirmed false
// suspicion and the stale-traffic fence. Vcausal and Manetho only.
func extPartitionSmoke() faultedSweep {
	scen := func(np int) []harness.Variant {
		return []harness.Variant{
			{
				Key: "kill",
				Faults: &faultplan.Plan{
					Correlated: []faultplan.CorrelatedKill{{At: 8 * sim.Millisecond, Ranks: []int{0}}},
				},
				RestartDelay: 3 * sim.Millisecond,
			},
			{
				// Suspect at 10 ms, fence + respawn at 13 ms (3 ms restart
				// delay), heal at 15 ms: the stale incarnation's held sends
				// are released after recovery started and must be fenced.
				Key: "false-suspect",
				Faults: &faultplan.Plan{
					Partitions: []faultplan.Partition{{
						At:           8 * sim.Millisecond,
						Groups:       isolateRank0(np),
						Duration:     7 * sim.Millisecond,
						SuspectAfter: 2 * sim.Millisecond,
					}},
				},
				RestartDelay: 3 * sim.Millisecond,
			},
		}
	}
	f := extPartitionSweep("ext-partition-smoke", elStacks[:2], scen, witnessPair)
	f.caps = map[string]sim.Time{witnessPair.Key: 30 * sim.Minute}
	return f
}

// extPartitionReport runs the full partition-vs-kill grid: fault-free
// baselines, then the partition-vs-kill scenarios; it tabulates per-stack
// slowdowns with partition diagnostics.
func extPartitionReport(opts harness.Options) *Report {
	return partitionReport(extPartitionFull(), opts)
}

// extPartitionSmokeReport is the CI-sized variant.
func extPartitionSmokeReport(opts harness.Options) *Report {
	return partitionReport(extPartitionSmoke(), opts)
}

func partitionReport(f faultedSweep, opts harness.Options) *Report {
	run := f.run(opts)
	t := &Table{
		Title:  "Partitions vs kills: slowdown (%) under link-fabric faults",
		Header: stackHeader(f.Stacks, "Workload", "Scenario"),
		Notes: []string{
			"100% = fault-free execution time of the same stack; cells show slowdown and",
			"diagnostics: fs = confirmed false suspicions (live rank declared dead, stale",
			"incarnation fenced at respawn), fenced = stale packets discarded by survivors",
			"scenarios: one crash-stop kill; a transient partition healed before detection",
			"(pure blackout); a partition outlasting the detector so a live rank is falsely",
			"suspected and its healed link replays stale traffic; a degraded (slow, jittery)",
			"link; a storm with uniformly distributed restart delays",
			"expected shape: a blackout costs its span, a false suspicion costs a recovery",
			"yet completes consistently — the incarnation fence, not replay, is load-bearing",
		},
	}
	note := func(cr *harness.CellResult) string {
		if fs := int64(cr.Probes[harness.ProbeFalseSuspicions]); fs > 0 {
			return fmt.Sprintf(" (fs %d, fenced %d)", fs, int64(cr.Probes[harness.ProbeFencedStale]))
		}
		if kills := int64(cr.Probes[harness.ProbeKills]); kills > 0 {
			return fmt.Sprintf(" (%d)", kills)
		}
		return ""
	}
	for _, w := range f.Workloads {
		for _, v := range f.Variants {
			row := []string{w.Key, v.Key}
			for _, st := range f.Stacks {
				row = append(row, run.slowdown(w.Key, st.Label, v.Key, note))
			}
			t.AddRow(row...)
		}
	}
	return &Report{Tables: []*Table{t}, Sweeps: run.sweeps()}
}
