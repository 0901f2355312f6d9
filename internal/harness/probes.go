package harness

import (
	"fmt"

	"mpichv/internal/cluster"
	"mpichv/internal/sim"
	"mpichv/internal/workload"
)

// Named probes collectable per cell via SweepSpec.Probes. Probes read
// cluster state that the aggregate Stats cannot express (a server-side
// high-water mark, a single rank's recovery timer).
const (
	// ProbeELBacklog is the worst request backlog across the Event Logger
	// group (0 when no logger is deployed).
	ProbeELBacklog = "el_max_backlog"
	// ProbeRecoveryEventNs is rank 0's determinant-collection time during
	// recovery, in virtual nanoseconds (Figure 10's quantity).
	ProbeRecoveryEventNs = "rank0_recovery_event_ns"
	// ProbeKills is the number of faults the cell's dispatcher injected.
	ProbeKills = "kills"
	// ProbeRestarts is the number of process relaunches the cell's
	// dispatcher performed.
	ProbeRestarts = "restarts"
	// ProbePlanKills is the number of faults injected by the cell's fault
	// plan (0 when the variant carries none); it differs from ProbeKills
	// when FaultAt/FaultEvery compose with a plan.
	ProbePlanKills = "plan_kills"
	// ProbeDetLossCount is the number of determinant losses recorded by
	// the cell (the run stops at the first, so this is 0 or 1 in practice).
	ProbeDetLossCount = "det_loss_count"
	// ProbeLostClockSpan is the total number of lost determinant clocks
	// across the cell's recorded losses (exact count — witnessed clocks
	// interleaved inside a loss's bounding range are not included).
	ProbeLostClockSpan = "lost_clock_span"
	// ProbePartitionCount is the number of partition windows the cell's
	// fault plan cut into the link fabric.
	ProbePartitionCount = "partition_count"
	// ProbeBlackoutSpan is the total virtual time (ns) the plan's healed
	// partition windows kept links down.
	ProbeBlackoutSpan = "blackout_span"
	// ProbeFalseSuspicions counts confirmed false suspicions: live ranks
	// declared dead whose stale incarnation was fenced at respawn.
	ProbeFalseSuspicions = "false_suspicions"
	// ProbeFencedStale counts application packets discarded by the
	// incarnation fence across all ranks (stale traffic released by
	// healing partitions).
	ProbeFencedStale = "fenced_stale"
	// ProbeHeldDeliveries counts deliveries held on downed links over the
	// run (released plus still held at the end).
	ProbeHeldDeliveries = "held_deliveries"
	// ProbeMTTR is the mean time to repair in virtual nanoseconds: the
	// mean length of the down windows closed by a completed recovery
	// (0 when no repair completed).
	ProbeMTTR = "mttr_ns"
	// ProbeDowntime is the total rank-downtime in virtual nanoseconds —
	// the sum over ranks of every down window (kill/suspect/rollback to
	// recovery), counting windows still open when the run stopped.
	ProbeDowntime = "downtime_ns"
	// ProbeAvailability is the rank-availability fraction:
	// 1 − downtime_ns / (NP · end).
	ProbeAvailability = "availability"
	// ProbeP50Latency is the median per-request virtual latency in
	// nanoseconds (scheduled issue to response consumption), from the
	// service workload's fixed-bucket histogram. Requires a service
	// workload (workload.BuildService).
	ProbeP50Latency = "p50_latency_ns"
	// ProbeP99Latency is the 99th-percentile per-request virtual latency
	// in nanoseconds. Requires a service workload.
	ProbeP99Latency = "p99_latency_ns"
	// ProbeGoodput is completed requests per virtual second over the
	// run's final time. Requires a service workload.
	ProbeGoodput = "goodput_rps"
	// ProbeDroppedRequests is the number of scheduled requests whose
	// response was never consumed before the run stopped — zero on any
	// run that drained its arrival window. Requires a service workload.
	ProbeDroppedRequests = "dropped_requests"
)

// probeFuncs maps probe names to their collectors.
var probeFuncs = map[string]func(*cluster.Cluster) float64{
	ProbeELBacklog: func(c *cluster.Cluster) float64 {
		m := 0
		for _, s := range c.ELs {
			m = max(m, s.MaxQueueLen)
		}
		return float64(m)
	},
	ProbeRecoveryEventNs: func(c *cluster.Cluster) float64 {
		return float64(c.Nodes[0].Stats().RecoveryEventCollection)
	},
	ProbeKills: func(c *cluster.Cluster) float64 {
		return float64(c.Dispatcher.Kills)
	},
	ProbeRestarts: func(c *cluster.Cluster) float64 {
		return float64(c.Dispatcher.Restarts)
	},
	ProbePlanKills: func(c *cluster.Cluster) float64 {
		if c.Faults == nil {
			return 0
		}
		return float64(c.Faults.Kills)
	},
	ProbeDetLossCount: func(c *cluster.Cluster) float64 {
		return float64(len(c.DetLosses))
	},
	ProbeLostClockSpan: func(c *cluster.Cluster) float64 {
		lost := 0
		for _, dl := range c.DetLosses {
			lost += dl.Lost
		}
		return float64(lost)
	},
	ProbePartitionCount: func(c *cluster.Cluster) float64 {
		if c.Faults == nil {
			return 0
		}
		return float64(c.Faults.PartitionsApplied)
	},
	ProbeBlackoutSpan: func(c *cluster.Cluster) float64 {
		if c.Faults == nil {
			return 0
		}
		return float64(c.Faults.BlackoutSpan)
	},
	ProbeFalseSuspicions: func(c *cluster.Cluster) float64 {
		return float64(c.Dispatcher.FalseSuspicions)
	},
	ProbeFencedStale: func(c *cluster.Cluster) float64 {
		return float64(c.AggregateStats().FencedStaleMsgs)
	},
	ProbeHeldDeliveries: func(c *cluster.Cluster) float64 {
		return float64(c.Net.HeldDeliveries)
	},
	ProbeMTTR: func(c *cluster.Cluster) float64 {
		return float64(c.MTTR())
	},
	ProbeDowntime: func(c *cluster.Cluster) float64 {
		return float64(c.DowntimeTotal())
	},
	ProbeAvailability: func(c *cluster.Cluster) float64 {
		return c.Availability()
	},
}

// serviceProbeFuncs maps the SLO probe names to their collectors. Unlike
// the cluster probes they read the workload instance's request ledger, so
// they are only collectable on service cells (workload.BuildService).
var serviceProbeFuncs = map[string]func(*workload.ServiceStats, sim.Time) float64{
	ProbeP50Latency: func(s *workload.ServiceStats, end sim.Time) float64 {
		return float64(s.Quantile(0.50))
	},
	ProbeP99Latency: func(s *workload.ServiceStats, end sim.Time) float64 {
		return float64(s.Quantile(0.99))
	},
	ProbeGoodput: func(s *workload.ServiceStats, end sim.Time) float64 {
		return s.GoodputRPS(end)
	},
	ProbeDroppedRequests: func(s *workload.ServiceStats, end sim.Time) float64 {
		return float64(s.Dropped())
	},
}

// probeContext is everything a probe may read after a cell's run: the
// finished cluster, the workload instance the cell executed (carrying the
// service request ledger when the workload is a service), and the final
// virtual time.
type probeContext struct {
	C   *cluster.Cluster
	In  *workload.Instance
	End sim.Time
}

// probe evaluates one named probe against a finished cell.
func probe(name string, ctx probeContext) (float64, error) {
	if fn, ok := probeFuncs[name]; ok {
		return fn(ctx.C), nil
	}
	if fn, ok := serviceProbeFuncs[name]; ok {
		if ctx.In == nil || ctx.In.Service == nil {
			return 0, fmt.Errorf("harness: probe %q requires a service workload (workload.BuildService)", name)
		}
		return fn(ctx.In.Service, ctx.End), nil
	}
	return 0, fmt.Errorf("harness: unknown probe %q", name)
}
