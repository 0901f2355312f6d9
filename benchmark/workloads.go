package main

import (
	"fmt"

	"mpichv/internal/checkpoint"
	"mpichv/internal/cluster"
	"mpichv/internal/faultplan"
	"mpichv/internal/harness"
	"mpichv/internal/sim"
	"mpichv/internal/workload"
)

// workloadDef is one benchmark workload: a name, the reason it exists, and
// the sweeps it runs. The grids below are literal copies — not imports — of
// the figures they come from (internal/experiment), so a later edit to a
// figure cannot move the yardstick.
type workloadDef struct {
	name string
	why  string
	// direct workloads bypass the harness worker pool even when untraced:
	// their cells are driven on one goroutine through the public steps.
	direct bool
	// phases are run in order; a later phase may read the earlier phases'
	// cells (fig10 kills rank 0 at each cell's measured fault-free midpoint).
	phases []phaseFunc
	// check returns the workload's own correctness failures (paper-shape
	// checks); the generic per-cell checks live in cellFailure.
	check func(cells []cellOut) []string
}

// phaseFunc builds one sweep. small trims the grid for the smoke test (CG
// rows with NP <= 4, compressed fault timelines); prior indexes the cells of
// earlier phases by ID and is empty during a set-up pass, which wires
// deployments without running them.
type phaseFunc func(seed int64, small bool, prior map[string]*cellOut) *harness.SweepSpec

// sweepWorkers is the harness pool width of every untraced sweep: fixed, so
// results compare across hosts, and never above the two cores the reference
// sandbox has.
const sweepWorkers = 2

// baseProbes are collected on every cell so failure.kills is defined on
// every workload.
var baseProbes = []string{harness.ProbeKills}

// serviceProbes are the service workload's SLO and availability readings.
var serviceProbes = []string{
	harness.ProbeKills, harness.ProbeP99Latency, harness.ProbeGoodput,
	harness.ProbeDroppedRequests, harness.ProbeAvailability,
}

func workloads() []*workloadDef {
	return []*workloadDef{
		{
			name:   "fig7-el",
			why:    "Fig. 7 grid with the Event Logger: tiny piggybacks, so kernel handoff, netmodel, daemon send/recv and EL traffic do the work",
			phases: []phaseFunc{fig7Phase(true)},
		},
		{
			name:   "fig7-noel",
			why:    "the same 33 cells with the Event Logger off: merge-heavy, allocation- and memory-bound, no EL traffic",
			phases: []phaseFunc{fig7Phase(false)},
		},
		{
			name:   "np64-cell",
			why:    "one cg.A.64 cell driven directly: simulated events per host second inside one cell at 4x paper scale, no worker pool",
			direct: true,
			phases: []phaseFunc{np64Phase},
		},
		{
			name:   "fig10-recovery",
			why:    "Fig. 10 grid: fault-free sweep, then rank 0 killed at each midpoint; determinant collection, full replay, sender-log re-serve",
			phases: []phaseFunc{fig10FreePhase, fig10CrashPhase},
			check:  checkFig10,
		},
		{
			name:   "faulted-allstacks",
			why:    "bt.A.9x4 under periodic and correlated kills on all five stacks: checkpoint, pessimistic, coordinated rollback; compute-paced",
			phases: []phaseFunc{faultedPhase},
			check:  checkRecovered,
		},
		{
			name:   "service-storm",
			why:    "open-loop service under rolling kills: sim as a timer wheel (compute-pacing polls, few messages), horizon stop, recovery under load",
			direct: true,
			phases: []phaseFunc{servicePhase},
			check:  checkService,
		},
	}
}

// --- shared axes ---

// reducers is the paper's piggyback-reduction axis.
var reducers = []string{"vcausal", "manetho", "logon"}

// causalStacks is the three reducers on the Vcausal stack, with or without
// the Event Logger. The stack key is the reducer name in both cases, so the
// fig7-el and fig7-noel cells of one (bench, NP, reducer) share a cell ID.
func causalStacks(useEL bool) []harness.Stack {
	out := make([]harness.Stack, len(reducers))
	for i, r := range reducers {
		out[i] = harness.Stack{Key: r, Label: r, Stack: cluster.StackVcausal, Reducer: r, UseEL: useEL}
	}
	return out
}

func nasWorkloads(specs []workload.Spec, small bool) []harness.Workload {
	var out []harness.Workload
	for _, s := range specs {
		if small && (s.NP > 4 || s.Bench != "cg") {
			continue // CG cells cost milliseconds; compute-paced BT and LU do not
		}
		out = append(out, harness.Workload{Key: s.String(), Spec: s})
	}
	return out
}

func nas(bench, class string, nps ...int) []workload.Spec {
	out := make([]workload.Spec, len(nps))
	for i, np := range nps {
		out[i] = workload.Spec{Bench: bench, Class: class, NP: np}
	}
	return out
}

// --- fig7-el / fig7-noel ---

// fig7Specs is the benchmark/process-count grid of the paper's Figure 7.
var fig7Specs = append(append(nas("bt", "A", 4, 9, 16), nas("cg", "A", 2, 4, 8, 16)...), nas("lu", "A", 2, 4, 8, 16)...)

func fig7Phase(useEL bool) phaseFunc {
	return func(seed int64, small bool, _ map[string]*cellOut) *harness.SweepSpec {
		name := "fig7-noel"
		if useEL {
			name = "fig7-el"
		}
		return &harness.SweepSpec{
			Name:      name,
			Workloads: nasWorkloads(fig7Specs, small),
			Stacks:    causalStacks(useEL),
			BaseSeed:  seed,
			Probes:    baseProbes,
		}
	}
}

// checkFig7Pair is the cross-workload paper-shape check, applied when both
// halves of Figure 7 ran: the Event Logger must shrink the piggybacked
// volume of every (bench, NP, reducer).
func checkFig7Pair(el, noel []cellOut) []string {
	byID := indexCells(noel)
	var fails []string
	for i := range el {
		if n := byID[el[i].ID]; n != nil && el[i].Stats.PiggybackBytes >= n.Stats.PiggybackBytes {
			fails = append(fails, fmt.Sprintf("%s: piggyback bytes with EL %d >= without %d",
				el[i].ID, el[i].Stats.PiggybackBytes, n.Stats.PiggybackBytes))
		}
	}
	return fails
}

// --- np64-cell ---

func np64Phase(seed int64, small bool, _ map[string]*cellOut) *harness.SweepSpec {
	w := harness.Workload{Key: "cg.A.64x4", Spec: workload.Spec{Bench: "cg", Class: "A", NP: 64, IterScale: 4}}
	if small {
		w = harness.Workload{Key: "cg.A.4", Spec: workload.Spec{Bench: "cg", Class: "A", NP: 4}}
	}
	return &harness.SweepSpec{
		Name:       "np64-cell",
		Workloads:  []harness.Workload{w},
		Stacks:     []harness.Stack{{Key: "manetho-el", Stack: cluster.StackVcausal, Reducer: "manetho", UseEL: true}},
		BaseSeed:   seed,
		MaxVirtual: 30 * sim.Minute,
		Probes:     baseProbes,
	}
}

// --- fig10-recovery ---

// fig10Specs is the paper's Figure 10 grid.
var fig10Specs = append(append(nas("bt", "A", 4, 9, 16, 25), nas("cg", "B", 2, 4, 8, 16)...), nas("lu", "A", 2, 4, 8, 16)...)

// fig10Stacks is Vcausal with and without the Event Logger.
var fig10Stacks = []harness.Stack{
	{Key: "el", Stack: cluster.StackVcausal, Reducer: "vcausal", UseEL: true},
	{Key: "noel", Stack: cluster.StackVcausal, Reducer: "vcausal"},
}

func fig10FreePhase(seed int64, small bool, _ map[string]*cellOut) *harness.SweepSpec {
	return &harness.SweepSpec{
		Name:      "fig10-free",
		Workloads: nasWorkloads(fig10Specs, small),
		Stacks:    fig10Stacks,
		Variants:  []harness.Variant{{Key: "fault-free"}},
		BaseSeed:  seed,
		Probes:    baseProbes,
	}
}

func fig10CrashPhase(seed int64, small bool, prior map[string]*cellOut) *harness.SweepSpec {
	return &harness.SweepSpec{
		Name:      "fig10-crash",
		Workloads: nasWorkloads(fig10Specs, small),
		Stacks:    fig10Stacks,
		Variants: []harness.Variant{{
			Key:          "mid-crash",
			CkptPolicy:   checkpoint.PolicyNone,
			RestartDelay: 100 * sim.Millisecond,
		}},
		BaseSeed: seed,
		Probes:   []string{harness.ProbeKills, harness.ProbeRecoveryEventNs},
		Tune: func(c *harness.Cell) {
			// Kill rank 0 at the midpoint of this cell's fault-free run.
			if free := prior[c.Workload.Key+"|"+c.Stack.Key+"|fault-free"]; free != nil {
				c.FaultAt = sim.Time(free.ElapsedNs / 2)
			}
		},
	}
}

// checkFig10 is Figure 10's shape: every crash cell recovered, and for
// NP >= 4 collecting determinants from the Event Logger is faster than
// reclaiming them from every survivor.
func checkFig10(cells []cellOut) []string {
	byID := indexCells(cells)
	var fails []string
	for _, w := range nasWorkloads(fig10Specs, false) {
		el, noel := byID[w.Key+"|el|mid-crash"], byID[w.Key+"|noel|mid-crash"]
		if el == nil || noel == nil {
			continue // row trimmed at smoke scale
		}
		for _, c := range []*cellOut{el, noel} {
			if c.Stats.Recoveries == 0 {
				fails = append(fails, c.ID+": rank 0 was never recovered")
			}
		}
		a, b := el.Probes[harness.ProbeRecoveryEventNs], noel.Probes[harness.ProbeRecoveryEventNs]
		if w.Spec.NP >= 4 && a >= b {
			fails = append(fails, fmt.Sprintf("%s: determinant collection with EL %.0f ns >= without %.0f ns", w.Key, a, b))
		}
	}
	return fails
}

// --- faulted-allstacks ---

// faultedStacks is every fault-tolerant stack of the repository.
var faultedStacks = append(causalStacks(true),
	harness.Stack{Key: "pessimistic", Stack: cluster.StackPessimistic, UseEL: true},
	harness.Stack{Key: "coordinated", Stack: cluster.StackCoordinated},
)

func faultedPhase(seed int64, small bool, _ map[string]*cellOut) *harness.SweepSpec {
	w := harness.Workload{
		Key:           "bt.A.9x4",
		Spec:          workload.Spec{Bench: "bt", Class: "A", NP: 9, IterScale: 4},
		AppStateBytes: 1 << 20,
	}
	groups := [][]int{{0, 1, 2}, {3, 4}}
	div := sim.Time(1) // smoke scale runs a 5 s cell on a timeline compressed 8x
	if small {
		w = harness.Workload{
			Key:           "cg.A.4x4",
			Spec:          workload.Spec{Bench: "cg", Class: "A", NP: 4, IterScale: 4},
			AppStateBytes: 64 << 10,
		}
		groups = [][]int{{0, 1}, {2, 3}}
		div = 8
	}
	correlated := &faultplan.Plan{
		Seed: seed,
		Correlated: []faultplan.CorrelatedKill{
			{At: 12 * sim.Second / div, Ranks: groups[0]},
			{At: 30 * sim.Second / div, Ranks: groups[1]},
		},
	}
	ckptPeriod := 10 * sim.Second / div
	return &harness.SweepSpec{
		Name:      "faulted-allstacks",
		Workloads: []harness.Workload{w},
		Stacks:    faultedStacks,
		Variants: []harness.Variant{
			{Key: "every-8s", FaultEvery: 8 * sim.Second / div},
			{Key: "correlated", Faults: correlated},
		},
		BaseSeed:   seed,
		MaxVirtual: 20 * sim.Minute,
		Probes:     baseProbes,
		Tune: func(c *harness.Cell) {
			// The same per-process checkpoint period for every stack:
			// round-robin one rank per period/NP, or a coordinated wave.
			c.Config.CkptPolicy, c.Config.CkptInterval = checkpoint.PolicyRoundRobin, ckptPeriod/sim.Time(c.Config.NP)
			if c.Stack.Stack == cluster.StackCoordinated {
				c.Config.CkptPolicy, c.Config.CkptInterval = checkpoint.PolicyCoordinated, ckptPeriod
			}
			c.Config.RestartDelay = 250 * sim.Millisecond / div
		},
	}
}

// checkRecovered requires every cell to have been hit by a fault: a grid
// whose faults all miss would measure a fault-free run under a faulted name.
func checkRecovered(cells []cellOut) []string {
	var fails []string
	for i := range cells {
		if cells[i].Probes[harness.ProbeKills] == 0 {
			fails = append(fails, cells[i].ID+": no fault was injected")
		}
	}
	return fails
}

// --- service-storm ---

// serviceConfig sizes the open-loop service: NP 9, 2 requests/s/rank over a
// 10-minute window. Arrivals are open-loop in virtual time; latency is
// measured from each request's scheduled issue.
func serviceConfig(seed int64, small bool) workload.ServiceConfig {
	if small {
		return workload.ServiceConfig{
			NP: 4, Seed: seed, RatePerRank: 100, Window: 150 * sim.Millisecond,
			ServiceTime: 500 * sim.Microsecond, AppStateBytes: 64 << 10,
		}
	}
	return workload.ServiceConfig{
		NP: 9, Seed: seed, RatePerRank: 2, Window: 10 * sim.Minute,
		ServiceTime: 5 * sim.Millisecond, ReqBytes: 2 << 10, RespBytes: 8 << 10,
		AppStateBytes: 128 << 10,
	}
}

func servicePhase(seed int64, small bool, _ map[string]*cellOut) *harness.SweepSpec {
	sc := serviceConfig(seed, small)
	storm := harness.Variant{
		Key:          "storm",
		Horizon:      15 * sim.Minute,
		RestartDelay: 2 * sim.Second,
		CkptPolicy:   checkpoint.PolicyRoundRobin,
		CkptInterval: 5 * sim.Second,
		Faults: &faultplan.Plan{Seed: seed, Storms: []faultplan.Storm{{
			MinInterval: 20 * sim.Second, MaxInterval: 40 * sim.Second,
			Victims: faultplan.VictimRoundRobin, MaxKills: 16,
		}}},
	}
	if small {
		storm.Horizon, storm.RestartDelay, storm.CkptInterval = 2*sim.Second, 5*sim.Millisecond, 50*sim.Millisecond
		storm.Faults = &faultplan.Plan{Seed: seed, Storms: []faultplan.Storm{{
			MinInterval: 30 * sim.Millisecond, MaxInterval: 60 * sim.Millisecond,
			Victims: faultplan.VictimRoundRobin, MaxKills: 3,
		}}}
	}
	return &harness.SweepSpec{
		Name: "service-storm",
		Workloads: []harness.Workload{{
			Key:  fmt.Sprintf("service.%d", sc.NP),
			Make: func() *workload.Instance { return workload.BuildService(sc) },
		}},
		Stacks:   []harness.Stack{{Key: "manetho-el", Stack: cluster.StackVcausal, Reducer: "manetho", UseEL: true}},
		Variants: []harness.Variant{storm},
		BaseSeed: seed,
		Probes:   serviceProbes,
	}
}

// checkService: the storm must cost availability, and the horizon must
// leave room to drain every scheduled request.
func checkService(cells []cellOut) []string {
	var fails []string
	for i := range cells {
		c := &cells[i]
		if d := c.Probes[harness.ProbeDroppedRequests]; d != 0 {
			fails = append(fails, fmt.Sprintf("%s: %.0f requests dropped", c.ID, d))
		}
		if av := c.Probes[harness.ProbeAvailability]; av >= 1 {
			fails = append(fails, fmt.Sprintf("%s: availability %.4f, the storm cost nothing", c.ID, av))
		}
	}
	return fails
}
