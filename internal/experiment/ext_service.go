package experiment

import (
	"fmt"

	"mpichv/internal/checkpoint"
	"mpichv/internal/cluster"
	"mpichv/internal/faultplan"
	"mpichv/internal/harness"
	"mpichv/internal/sim"
	"mpichv/internal/workload"
)

// The service extension asks the operator's question the paper's batch
// kernels cannot: which causal logging protocol keeps an always-on
// request/response service inside its latency and goodput SLOs when ranks
// fail? An open-loop Poisson request stream (workload.BuildService) keeps
// arriving while crashed ranks restore and replay, the run is cut at a
// virtual-time horizon rather than kernel completion, and the grid reads
// the SLO probes — p50/p99 latency, goodput, drops — next to the
// availability accounting (MTTR, downtime, availability).

// extServiceSeed derives the per-NP arrival schedules and the per-cell
// simulation seeds. One schedule per workload key: every stack and fault
// scenario of one NP serves the identical offered load, so SLO deltas are
// attributable to the protocol and the faults alone.
const extServiceSeed = 2907

// extServiceScenario is one point of the fault axis.
type extServiceScenario struct {
	key string
	// restart overrides the detection+relaunch delay for this scenario
	// (0 = failure.DefaultRestartDelay).
	restart sim.Time
	// plan resolves per NP (partition groups depend on the rank set).
	plan func(np int) *faultplan.Plan
}

// extServiceConfig sizes one service-extension run; the full experiment
// and the CI smoke variant share the machinery.
type extServiceConfig struct {
	name      string
	nps       []int
	stacks    []harness.Stack
	service   func(np int) workload.ServiceConfig
	horizon   sim.Time
	scenarios []extServiceScenario
	// ckptInterval is the flat round-robin checkpoint period (every
	// stack is a causal one, so there is no coordinated budget to match).
	ckptInterval sim.Time
}

// extServiceFull is the paper-scale grid: NP 9 and 16, a ten-minute
// arrival window inside a fifteen-minute horizon, a rolling kill storm
// with slow (2 s) detection+relaunch, and a partition that falsely
// suspects a live rank.
func extServiceFull() extServiceConfig {
	return extServiceConfig{
		name:   "ext-service",
		nps:    []int{9, 16},
		stacks: elStacks,
		service: func(np int) workload.ServiceConfig {
			return workload.ServiceConfig{
				NP:          np,
				RatePerRank: 2,
				Window:      10 * sim.Minute,
				ServiceTime: 5 * sim.Millisecond,
				ReqBytes:    2 << 10,
				RespBytes:   8 << 10,
				// A service checkpoints a working set, not a batch solver's
				// matrices: 128 KB costs ~10 ms on the wire, so routine
				// checkpoint stalls stay out of the fault-free tail.
				AppStateBytes: 128 << 10,
			}
		},
		horizon: 15 * sim.Minute,
		scenarios: []extServiceScenario{
			{key: "fault-free"},
			{
				// Rolling single-rank kills every 20-40 s with realistic
				// 2 s detection+relaunch: recovery happens under live load,
				// so its cost lands in the latency tail.
				key:     "storm",
				restart: 2 * sim.Second,
				plan: func(np int) *faultplan.Plan {
					return &faultplan.Plan{
						Storms: []faultplan.Storm{{
							MinInterval: 20 * sim.Second, MaxInterval: 40 * sim.Second,
							Victims: faultplan.VictimRoundRobin, MaxKills: 16,
						}},
					}
				},
			},
			{
				// A partition isolates rank 0 past the detector's patience:
				// the live rank is falsely declared dead, its replacement
				// recovers, and the healed link's stale traffic is fenced —
				// all while requests keep arriving.
				key: "partition",
				plan: func(np int) *faultplan.Plan {
					return &faultplan.Plan{
						Partitions: []faultplan.Partition{{
							At:           5 * sim.Minute,
							Groups:       isolateRank0(np),
							Duration:     800 * sim.Millisecond,
							SuspectAfter: 400 * sim.Millisecond,
						}},
					}
				},
			},
		},
		// A flat 5 s cadence instead of fig01's NP-scaled budget: frequent
		// enough to bound storm replay to a few seconds of log, sparse
		// enough that stalls don't dominate the fault-free tail.
		ckptInterval: 5 * sim.Second,
	}
}

// extServiceSmoke is the CI-sized variant: 4 ranks, a 150 ms arrival
// window inside a 2 s horizon, compressed fault timelines. Deterministic
// across worker-pool widths like every sweep.
func extServiceSmoke() extServiceConfig {
	return extServiceConfig{
		name:   "ext-service-smoke",
		nps:    []int{4},
		stacks: elStacks[:2], // Vcausal and Manetho
		service: func(np int) workload.ServiceConfig {
			return workload.ServiceConfig{
				NP:            np,
				RatePerRank:   100,
				Window:        150 * sim.Millisecond,
				ServiceTime:   500 * sim.Microsecond,
				AppStateBytes: 64 << 10,
			}
		},
		horizon: 2 * sim.Second,
		scenarios: []extServiceScenario{
			{key: "fault-free"},
			{
				key:     "storm",
				restart: 5 * sim.Millisecond,
				plan: func(np int) *faultplan.Plan {
					return &faultplan.Plan{
						Storms: []faultplan.Storm{{
							MinInterval: 30 * sim.Millisecond, MaxInterval: 60 * sim.Millisecond,
							Victims: faultplan.VictimRoundRobin, MaxKills: 3,
						}},
					}
				},
			},
			{
				// Suspect at 50 ms, fence + respawn at 55 ms (5 ms restart
				// delay), heal at 70 ms: the healed link releases the stale
				// incarnation's traffic after recovery began.
				key:     "partition",
				restart: 5 * sim.Millisecond,
				plan: func(np int) *faultplan.Plan {
					return &faultplan.Plan{
						Partitions: []faultplan.Partition{{
							At:           40 * sim.Millisecond,
							Groups:       isolateRank0(np),
							Duration:     30 * sim.Millisecond,
							SuspectAfter: 10 * sim.Millisecond,
						}},
					}
				},
			},
		},
		ckptInterval: 50 * sim.Millisecond,
	}
}

// extServiceReport runs the full service-SLO grid: the always-on service
// workload across the causal stacks and fault scenarios; it tabulates the
// SLO probes.
func extServiceReport() *Report { return serviceReport(extServiceFull()) }

// extServiceSmokeReport is the CI-sized variant (4 ranks, compressed
// timeline, Vcausal and Manetho only).
func extServiceSmokeReport() *Report { return serviceReport(extServiceSmoke()) }

func serviceReport(cfg extServiceConfig) *Report {
	workloads := make([]harness.Workload, len(cfg.nps))
	for i, np := range cfg.nps {
		key := fmt.Sprintf("service.%d", np)
		sc := cfg.service(np)
		sc.Seed = sim.DeriveSeed(extServiceSeed, key)
		workloads[i] = harness.Workload{
			Key:  key,
			Make: func() *workload.Instance { return workload.BuildService(sc) },
		}
	}

	variants := make([]harness.Variant, len(cfg.scenarios))
	for i, sc := range cfg.scenarios {
		variants[i] = harness.Variant{
			Key:          sc.key,
			Horizon:      cfg.horizon,
			RestartDelay: sc.restart,
			CkptPolicy:   checkpoint.PolicyRoundRobin,
			CkptInterval: cfg.ckptInterval,
		}
	}
	// Plans resolve per workload: partition groups depend on NP.
	plans := planTune(workloads, variants, func(_ harness.Workload, np, i int) *faultplan.Plan {
		if plan := cfg.scenarios[i].plan; plan != nil {
			return plan(np)
		}
		return nil
	})

	spec := &harness.SweepSpec{
		Name:      cfg.name,
		Workloads: workloads,
		Stacks:    cfg.stacks,
		Variants:  variants,
		BaseSeed:  extServiceSeed,
		Probes: []string{
			harness.ProbeP50Latency, harness.ProbeP99Latency,
			harness.ProbeGoodput, harness.ProbeDroppedRequests,
			harness.ProbeMTTR, harness.ProbeDowntime, harness.ProbeAvailability,
			harness.ProbeKills, harness.ProbePlanKills,
			harness.ProbeFalseSuspicions,
		},
		Tune: plans,
	}
	res := sweep(spec)

	t := &Table{
		Title:  "Always-on service: latency and goodput SLOs under faults",
		Header: stackHeader(cfg.stacks, "Workload", "Scenario"),
		Notes: []string{
			"open-loop Poisson request streams; latency is measured from each request's",
			"scheduled issue time to response consumption (no coordinated omission), so",
			"recovery stalls land in the tail instead of thinning the load",
			"cells show p50/p99 virtual latency, goodput (completed requests per virtual",
			"second), availability when < 100%, and requests dropped at the horizon",
			"expected shape: fault-free p99 sits around ten ms; storms push the tail by the",
			"detection+replay time while goodput barely moves (the paper's low-overhead",
			"claim, restated for services); the partition adds one false suspicion whose",
			"fence, not replay, preserves consistency",
		},
	}
	for _, w := range workloads {
		for _, v := range variants {
			row := []string{w.Key, v.Key}
			for _, st := range cfg.stacks {
				row = append(row, extServiceCell(res.Get(w.Key, st.Label, v.Key)))
			}
			t.AddRow(row...)
		}
	}
	return &Report{Name: cfg.name, Table: t, Sweeps: []*harness.Results{res}}
}

// extServiceCell renders one grid cell: the SLO figures for any run that
// reached a planned end (completion, survived false suspicion, or the
// horizon), the typed outcome otherwise.
func extServiceCell(cr *harness.CellResult) string {
	if cr == nil || cr.Err != "" {
		return "error"
	}
	switch cr.Outcome {
	case cluster.OutcomeCompleted, cluster.OutcomeFalseSuspicion, cluster.OutcomeHorizon:
	default:
		return string(cr.Outcome)
	}
	p50 := sim.Time(cr.Probes[harness.ProbeP50Latency])
	p99 := sim.Time(cr.Probes[harness.ProbeP99Latency])
	cell := fmt.Sprintf("p50 %s p99 %s %s/s",
		fmtLatency(p50), fmtLatency(p99), f1(cr.Probes[harness.ProbeGoodput]))
	if av := cr.Probes[harness.ProbeAvailability]; av < 1 {
		cell += fmt.Sprintf(" av %.3f%%", 100*av)
	}
	if dropped := int64(cr.Probes[harness.ProbeDroppedRequests]); dropped > 0 {
		cell += fmt.Sprintf(" drop %d", dropped)
	}
	if fs := int64(cr.Probes[harness.ProbeFalseSuspicions]); fs > 0 {
		cell += fmt.Sprintf(" fs %d", fs)
	}
	return cell
}

// fmtLatency renders a virtual latency in the most readable unit.
func fmtLatency(t sim.Time) string {
	switch {
	case t >= sim.Second:
		return fmt.Sprintf("%.1fs", float64(t)/float64(sim.Second))
	case t >= sim.Millisecond:
		return fmt.Sprintf("%.1fms", float64(t)/float64(sim.Millisecond))
	default:
		return fmt.Sprintf("%.0fus", float64(t)/float64(sim.Microsecond))
	}
}
