package experiment

import (
	"fmt"

	"mpichv/internal/cluster"
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

// extPartitionStacks is the protocol axis: the three causal reducers, all
// with the Event Logger.
var extPartitionStacks = []harness.Stack{
	{Label: "Vcausal (EL)", Stack: cluster.StackVcausal, Reducer: "vcausal", UseEL: true},
	{Label: "Manetho (EL)", Stack: cluster.StackVcausal, Reducer: "manetho", UseEL: true},
	{Label: "LogOn (EL)", Stack: cluster.StackVcausal, Reducer: "logon", UseEL: true},
}

// extPartitionRestart is the constant detection + relaunch delay (the
// restart-jitter scenario replaces it with a distribution).
const extPartitionRestart = 250 * sim.Millisecond

// extPartitionDivergence caps a scenario run at this multiple of the
// stack's fault-free duration.
const extPartitionDivergence = 8

// extPartitionScenarios are the fault environments. The partition group
// layout isolates rank 0 from the rest of the machine; the stable servers
// stay on the dispatcher's side of every cut.
func extPartitionScenarios(np int) []struct {
	key  string
	plan *faultplan.Plan
} {
	rest := make([]int, 0, np-1)
	for r := 1; r < np; r++ {
		rest = append(rest, r)
	}
	return []struct {
		key  string
		plan *faultplan.Plan
	}{
		{
			// Crash-stop baseline: the same victim simply dies once.
			key: "kill",
			plan: &faultplan.Plan{
				Correlated: []faultplan.CorrelatedKill{{At: 10 * sim.Second, Ranks: []int{0}}},
			},
		},
		{
			// Transient blackout: the partition heals before the detector's
			// patience runs out — no kill, no recovery, a pure stall with
			// every held delivery released on heal.
			key: "blackout",
			plan: &faultplan.Plan{
				Partitions: []faultplan.Partition{{
					At:       10 * sim.Second,
					Groups:   [][]int{{0}, rest},
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
			key: "false-suspect",
			plan: &faultplan.Plan{
				Partitions: []faultplan.Partition{{
					At:           10 * sim.Second,
					Groups:       [][]int{{0}, rest},
					Duration:     800 * sim.Millisecond,
					SuspectAfter: 400 * sim.Millisecond,
				}},
			},
		},
		{
			// Degraded link: the rank 0 <-> rank 1 pair runs at a quarter of
			// its bandwidth with 4x latency and 100 us of jitter for 20 s.
			key: "degraded-link",
			plan: &faultplan.Plan{
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
			key: "restart-jitter",
			plan: &faultplan.Plan{
				Storms: []faultplan.Storm{{
					MinInterval: 6 * sim.Second, MaxInterval: 10 * sim.Second,
					Victims: faultplan.VictimRoundRobin, MaxKills: 4,
				}},
				RestartDelay: faultplan.DelayDist{
					Dist: faultplan.DistUniform,
					Min:  100 * sim.Millisecond, Max: 600 * sim.Millisecond,
				},
			},
		},
	}
}

// extPartitionConfig sizes one partition-extension run; the full
// experiment and the CI smoke variant share the machinery.
type extPartitionConfig struct {
	name      string
	workloads []harness.Workload
	stacks    []harness.Stack
	// restart overrides the constant restart delay (0 = extPartitionRestart).
	restart sim.Time
	// scenariosFor builds the variant axis for one workload's NP.
	scenariosFor func(np int) []struct {
		key  string
		plan *faultplan.Plan
	}
	// maxVirtual fixes the faulted cells' cap; 0 derives it from the
	// stack's fault-free baseline (x extPartitionDivergence).
	maxVirtual sim.Time
}

func extPartitionFull() extPartitionConfig {
	return extPartitionConfig{
		name: "ext-partition",
		workloads: []harness.Workload{
			{Key: "bt.A.9x4", Spec: workload.Spec{Bench: "bt", Class: "A", NP: 9, IterScale: 4}, AppStateBytes: 1 << 20},
			{Key: "bt.A.16x4", Spec: workload.Spec{Bench: "bt", Class: "A", NP: 16, IterScale: 4}, AppStateBytes: 1 << 20},
		},
		stacks:       extPartitionStacks,
		scenariosFor: extPartitionScenarios,
	}
}

// extPartitionSmoke is the CI-sized variant: the witness-pair topology
// with a compressed timeline, deterministic across worker-pool widths,
// guaranteed to exercise a confirmed false suspicion and the stale-traffic
// fence.
func extPartitionSmoke() extPartitionConfig {
	scen := func(np int) []struct {
		key  string
		plan *faultplan.Plan
	} {
		rest := make([]int, 0, np-1)
		for r := 1; r < np; r++ {
			rest = append(rest, r)
		}
		return []struct {
			key  string
			plan *faultplan.Plan
		}{
			{
				key: "kill",
				plan: &faultplan.Plan{
					Correlated: []faultplan.CorrelatedKill{{At: 8 * sim.Millisecond, Ranks: []int{0}}},
				},
			},
			{
				// Suspect at 10 ms, fence + respawn at 13 ms (3 ms restart
				// delay), heal at 15 ms: the stale incarnation's held sends
				// are released after recovery started and must be fenced.
				key: "false-suspect",
				plan: &faultplan.Plan{
					Partitions: []faultplan.Partition{{
						At:           8 * sim.Millisecond,
						Groups:       [][]int{{0}, rest},
						Duration:     7 * sim.Millisecond,
						SuspectAfter: 2 * sim.Millisecond,
					}},
				},
			},
		}
	}
	return extPartitionConfig{
		name: "ext-partition-smoke",
		workloads: []harness.Workload{{
			Key:  "witness-pair.3",
			Make: func() *workload.Instance { return workload.BuildWitnessPair(40) },
		}},
		stacks:       extPartitionStacks[:2], // Vcausal and Manetho
		restart:      3 * sim.Millisecond,
		scenariosFor: scen,
		maxVirtual:   30 * sim.Minute,
	}
}

// ExtPartitionReport runs the full partition-vs-kill grid: fault-free
// baselines, then the partition-vs-kill scenarios; it tabulates per-stack
// slowdowns with partition diagnostics.
func ExtPartitionReport() *Report { return extPartitionReport(extPartitionFull()) }

// ExtPartitionSmokeReport is the CI-sized variant (witness-pair topology,
// kill vs false-suspect, Vcausal and Manetho only).
func ExtPartitionSmokeReport() *Report { return extPartitionReport(extPartitionSmoke()) }

func extPartitionReport(cfg extPartitionConfig) *Report {
	stacks := cfg.stacks

	base := extPartitionSpec(cfg, cfg.name+"-baseline",
		[]harness.Variant{{Key: "fault-free"}}, nil)
	baseRes := sweep(base)
	baseline := make(map[string]sim.Time)
	for _, w := range cfg.workloads {
		for _, st := range stacks {
			baseline[w.Key+"|"+st.Label] =
				baseRes.MustGet(w.Key, st.Label, "fault-free").Elapsed
		}
	}

	// The variant axis is the scenario key; the plan resolves per workload
	// in Tune (partition groups depend on NP).
	first := cfg.scenariosFor(cfg.workloads[0].NP())
	variants := make([]harness.Variant, len(first))
	for i, sc := range first {
		variants[i] = harness.Variant{Key: sc.key}
	}
	plans := make(map[string]*faultplan.Plan)
	for _, w := range cfg.workloads {
		for _, sc := range cfg.scenariosFor(w.NP()) {
			plans[w.Key+"|"+sc.key] = sc.plan
		}
	}
	stormed := extPartitionSpec(cfg, cfg.name, variants, func(c *harness.Cell) {
		c.Config.Faults = plans[c.Workload.Key+"|"+c.Variant.Key]
		if cfg.maxVirtual > 0 {
			c.MaxVirtual = cfg.maxVirtual
		} else {
			c.MaxVirtual = baseline[c.Workload.Key+"|"+c.Stack.Label] * extPartitionDivergence
		}
	})
	stormedRes := sweep(stormed)

	header := []string{"Workload", "Scenario"}
	for _, sc := range cfg.stacks {
		header = append(header, sc.Label)
	}
	t := &Table{
		Title:  "Partitions vs kills: slowdown (%) under link-fabric faults",
		Header: header,
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
	for _, w := range cfg.workloads {
		for _, v := range variants {
			row := []string{w.Key, v.Key}
			for _, st := range stacks {
				cr := stormedRes.Get(w.Key, st.Label, v.Key)
				switch {
				case cr == nil:
					row = append(row, "error")
					continue
				case !cr.Completed:
					// Render the typed outcome (determinant-loss,
					// diverged, deadlock-timeout) rather than flattening
					// everything to "diverged".
					if cr.Outcome != "" {
						row = append(row, string(cr.Outcome))
					} else {
						row = append(row, "error")
					}
					continue
				case cr.Err != "":
					row = append(row, "error")
					continue
				}
				cell := f1(100 * float64(cr.Elapsed) / float64(baseline[w.Key+"|"+st.Label]))
				if fs := int64(cr.Probes[harness.ProbeFalseSuspicions]); fs > 0 {
					cell += fmt.Sprintf(" (fs %d, fenced %d)", fs, int64(cr.Probes[harness.ProbeFencedStale]))
				} else if kills := int64(cr.Probes[harness.ProbeKills]); kills > 0 {
					cell += fmt.Sprintf(" (%d)", kills)
				}
				row = append(row, cell)
			}
			t.AddRow(row...)
		}
	}
	return &Report{Name: cfg.name, Table: t, Sweeps: []*harness.Results{baseRes, stormedRes}}
}

// extPartitionSpec assembles one sweep phase with the fig1-style
// checkpoint budget.
func extPartitionSpec(cfg extPartitionConfig, name string, variants []harness.Variant, tune func(*harness.Cell)) *harness.SweepSpec {
	restart := cfg.restart
	if restart == 0 {
		restart = extPartitionRestart
	}
	return &harness.SweepSpec{
		Name:       name,
		Workloads:  cfg.workloads,
		Stacks:     cfg.stacks,
		Variants:   variants,
		BaseSeed:   2905,
		MaxVirtual: 100 * sim.Minute,
		Probes: []string{
			harness.ProbePartitionCount, harness.ProbeBlackoutSpan,
			harness.ProbeFalseSuspicions, harness.ProbeFencedStale,
			harness.ProbeHeldDeliveries,
			harness.ProbeKills, harness.ProbePlanKills,
			harness.ProbeMTTR, harness.ProbeDowntime,
			harness.ProbeAvailability,
		},
		Tune: func(c *harness.Cell) {
			c.Config.CkptPolicy = fig01PolicyFor(c.Stack.Stack)
			c.Config.CkptInterval = fig01CkptInterval(c.Stack.Stack, c.Config.NP)
			c.Config.RestartDelay = restart
			if tune != nil {
				tune(c)
			}
		},
	}
}
