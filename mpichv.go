// Package mpichv is a deterministic, simulation-backed reproduction of the
// MPICH-V fault tolerance framework and of the study "Impact of Event
// Logger on Causal Message Logging Protocols for Fault Tolerant MPI"
// (Bouteiller, Collin, Herault, Lemarinier, Cappello — IPDPS 2005).
//
// The library provides:
//
//   - a process-oriented discrete-event simulator with a Fast-Ethernet
//     cluster model,
//   - a mini-MPI (point-to-point + collectives) over the paper's generic
//     communication daemon (Vdaemon) and V-protocol hook API,
//   - the three causal message logging protocols the paper compares —
//     Vcausal, Manetho and LogOn — with and without the Event Logger,
//     plus pessimistic logging and Chandy-Lamport coordinated
//     checkpointing baselines,
//   - the auxiliary stable servers: Event Logger, checkpoint server,
//     checkpoint scheduler and dispatcher with fault injection and full
//     crash/recovery (checkpoint restore, determinant collection,
//     sender-based payload replay),
//   - a declarative fault-scenario engine (FaultPlan): Poisson/uniform
//     fault storms, correlated multi-rank kills, cascades triggered by
//     recovery-path events, Event Logger / checkpoint-server outages,
//     network partitions and degraded links, compiled to one list of
//     primitive operations with deterministic per-seed sampling,
//   - NAS Parallel Benchmark communication skeletons (BT, SP, CG, LU, FT,
//     MG; classes A and B) and a NetPIPE-style ping-pong,
//   - one experiment per table/figure of the paper's evaluation, each
//     expressed as a declarative sweep grid,
//   - a parallel sweep harness (Sweep / SweepSpec): declarative cartesian
//     experiment grids — workload × protocol stack × variant — executed
//     across a worker pool with deterministic per-cell seeds and
//     machine-readable JSON/CSV results.
//
// # Quick start
//
//	spec := mpichv.BenchmarkSpec{Bench: "cg", Class: "A", NP: 4}
//	bench := mpichv.BuildBenchmark(spec)
//	c := mpichv.NewCluster(mpichv.Config{
//		NP:      spec.NP,
//		Stack:   mpichv.StackVcausal,
//		Reducer: "manetho",
//		UseEL:   true,
//	})
//	defer c.Close()
//	elapsed := c.Run(bench.Programs, 10*mpichv.Minute).MustCompleted()
//	fmt.Printf("%.1f Mflop/s\n", bench.Mflops(elapsed))
//
// Run returns a structured RunResult: Outcome classifies completion,
// determinant loss (the paper's known limitation of EL-less causal logging
// under concurrent failures, reported as a measured result rather than an
// error), divergence at the virtual cap, a deadlock (the event queue
// drained with programs pending) or an always-on run reaching its horizon;
// MustCompleted is the loud path for callers that assume completion.
//
// Custom applications implement Program: a function receiving the rank's
// daemon node, typically wrapped in a Comm for the MPI API.
//
// # Sweeps
//
// Arbitrary experiment grids run through the harness in a few lines:
//
//	spec := &mpichv.SweepSpec{
//		Name:      "reducer-scaling",
//		Workloads: []mpichv.SweepWorkload{{Spec: mpichv.BenchmarkSpec{Bench: "cg", Class: "A", NP: 8}}},
//		Stacks: []mpichv.SweepStack{
//			{Label: "Vcausal", Stack: mpichv.StackVcausal, Reducer: "vcausal", UseEL: true},
//			{Label: "Manetho", Stack: mpichv.StackVcausal, Reducer: "manetho", UseEL: true},
//		},
//	}
//	res := mpichv.Sweep(spec, mpichv.SweepOptions{}) // one worker per CPU
//	data, _ := res.JSON()
package mpichv

import (
	"mpichv/internal/causal"
	"mpichv/internal/checkpoint"
	"mpichv/internal/cluster"
	"mpichv/internal/daemon"
	"mpichv/internal/eventlogger"
	"mpichv/internal/experiment"
	"mpichv/internal/failure"
	"mpichv/internal/faultplan"
	"mpichv/internal/harness"
	"mpichv/internal/mpi"
	"mpichv/internal/netmodel"
	"mpichv/internal/obs"
	"mpichv/internal/sim"
	"mpichv/internal/trace"
	"mpichv/internal/workload"
)

// Core simulation vocabulary.
type (
	// Time is virtual time in nanoseconds (see sim.Time).
	Time = sim.Time
	// Config describes a cluster deployment.
	Config = cluster.Config
	// Cluster is a wired deployment ready to run programs.
	Cluster = cluster.Cluster
	// Program is one rank's application code.
	Program = failure.Program
	// Node is a computing node (MPI process + communication daemon).
	Node = daemon.Node
	// Comm is the application-facing MPI communicator.
	Comm = mpi.Comm
	// Stats are the per-node measurement probes.
	Stats = trace.Stats
	// BenchmarkSpec names one workload instance.
	BenchmarkSpec = workload.Spec
	// Benchmark is a runnable workload with metadata.
	Benchmark = workload.Instance
	// Table is a rendered experiment result.
	Table = experiment.Table
	// NetworkConfig is the wire model.
	NetworkConfig = netmodel.Config
	// Dispatcher supervises a run and injects faults.
	Dispatcher = failure.Dispatcher
	// CheckpointPolicy selects the checkpoint scheduler behaviour.
	CheckpointPolicy = checkpoint.Policy
	// EventLoggerConfig is the Event Logger service model.
	EventLoggerConfig = eventlogger.Config

	// FaultPlan is a declarative multi-failure scenario: storms,
	// correlated kills, cascades, stable-service outages, partitions and
	// degraded links compiled onto a run (set Config.Faults or
	// SweepVariant.Faults).
	FaultPlan = faultplan.Plan
	// FaultStorm is a stochastic fault-arrival process (Poisson or
	// uniform inter-arrival times).
	FaultStorm = faultplan.Storm
	// FaultCorrelatedKill fells several ranks in the same instant.
	FaultCorrelatedKill = faultplan.CorrelatedKill
	// FaultCascade schedules a follow-on fault after a recovery-path
	// trigger (kill, restart, recovery completion, checkpoint wave).
	FaultCascade = faultplan.Cascade
	// FaultOutage takes the Event Logger or checkpoint server offline
	// for a window.
	FaultOutage = faultplan.Outage
	// FaultPartition severs every link between ranks of different groups
	// for a window, optionally letting the majority side's failure
	// detector falsely suspect the unreachable ranks.
	FaultPartition = faultplan.Partition
	// FaultDegradeLink runs a directed link at scaled latency/bandwidth
	// with deterministic per-delivery jitter for a window.
	FaultDegradeLink = faultplan.DegradeLink
	// RestartDelayDist is a per-fault restart-delay distribution
	// (constant/uniform/exponential) drawn from the plan's own stream.
	RestartDelayDist = faultplan.DelayDist
	// FaultEngine is a compiled plan with its fault counters.
	FaultEngine = faultplan.Engine
	// FalseSuspicion records one confirmed false suspicion: a live rank
	// declared dead behind a partition, its stale incarnation fenced when
	// the replacement spawned.
	FalseSuspicion = cluster.FalseSuspicion
	// LinkState classifies one directed link of the fabric (up, degraded,
	// down); see Network.Link / DownLink / DegradeLink / HealLink.
	LinkState = netmodel.LinkState

	// RunResult is the structured outcome of one Cluster.Run: the Outcome
	// classification, the final virtual time, and determinant-loss
	// diagnostics when that is how the run ended.
	RunResult = cluster.RunResult
	// RunOutcome classifies how a run ended (see the Outcome* constants).
	RunOutcome = cluster.Outcome
	// DeterminantLoss carries the diagnostics of a determinant-loss
	// outcome: victim rank, missing clock range, and which concurrently
	// dead peers held the only copies.
	DeterminantLoss = daemon.DeterminantLoss

	// SweepSpec is a declarative cartesian experiment grid.
	SweepSpec = harness.SweepSpec
	// SweepStack is one point of a sweep's protocol axis.
	SweepStack = harness.Stack
	// SweepWorkload is one point of a sweep's application axis.
	SweepWorkload = harness.Workload
	// SweepVariant is one point of a sweep's configuration axis
	// (checkpointing, faults, Event Logger deployment, wire model).
	SweepVariant = harness.Variant
	// SweepCell is one fully resolved grid point.
	SweepCell = harness.Cell
	// SweepOptions tune sweep execution (worker-pool size, progress and
	// error callbacks, and an optional trace directory that enables the
	// observability layer and writes per-cell timelines).
	SweepOptions = harness.Options
	// SweepProgress reports one completed cell to the progress callback.
	SweepProgress = harness.Progress
	// SweepCellError identifies one failed cell.
	SweepCellError = harness.CellError
	// SweepResults holds a sweep's outcome in grid order; it serializes
	// to JSON and CSV.
	SweepResults = harness.Results
	// SweepCellResult is one cell's outcome.
	SweepCellResult = harness.CellResult
	// ExperimentReport is a paper artifact: the rendered table plus the
	// raw sweep results behind it.
	ExperimentReport = experiment.Report

	// TraceConfig enables the observability layer on a deployment (set
	// Config.Trace): a deterministic virtual-time run timeline plus
	// periodic gauge sampling. Tracing only observes — a traced run's
	// results are identical to an untraced one's.
	TraceConfig = obs.Config
	// TimelineRecorder accumulates a run's typed timeline events (see
	// Cluster.Timeline); exportable as JSONL or Chrome trace-event JSON.
	TimelineRecorder = obs.Recorder
	// TimelineEvent is one typed, virtually-timestamped timeline event; the
	// dispatcher's lifecycle stream (Dispatcher.Observe) carries the same
	// type.
	TimelineEvent = obs.Event
	// AvailabilityMetrics are the MTTR/downtime/availability figures
	// derived from a timeline (see ComputeAvailability).
	AvailabilityMetrics = obs.Metrics

	// ServiceConfig sizes an always-on request/response service workload:
	// per-rank open-loop Poisson arrival streams driving request messages
	// across ranks, with per-request virtual latency measured from each
	// request's scheduled issue time (see BuildService).
	ServiceConfig = workload.ServiceConfig
	// ServiceStats is a service build's request ledger: scheduled,
	// completed and dropped request counts, the fixed-bucket latency
	// histogram, and goodput (see Benchmark.Service on service builds).
	ServiceStats = workload.ServiceStats
	// LatencyHist is a fixed-bucket (power-of-two nanosecond) virtual
	// latency histogram with deterministic quantiles; a nil histogram is
	// the disabled layer (Observe is a branch, zero allocations).
	LatencyHist = obs.LatencyHist
)

// Time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
	Minute      = sim.Minute
)

// Communication stacks.
const (
	StackRawTCP      = cluster.StackRawTCP
	StackP4          = cluster.StackP4
	StackVdummy      = cluster.StackVdummy
	StackVcausal     = cluster.StackVcausal
	StackPessimistic = cluster.StackPessimistic
	StackCoordinated = cluster.StackCoordinated
)

// Checkpoint scheduler policies.
const (
	PolicyNone        = checkpoint.PolicyNone
	PolicyRoundRobin  = checkpoint.PolicyRoundRobin
	PolicyRandom      = checkpoint.PolicyRandom
	PolicyCoordinated = checkpoint.PolicyCoordinated
)

// Run outcomes. Determinant loss is a first-class result: the paper's
// known limitation of causal logging without an Event Logger under
// concurrent failures, quantified by the ext-elcontribution experiment.
// False suspicion marks a run that completed despite a live rank being
// declared dead (a partition outlasted the detector) — the ext-partition
// experiment's regime. Horizon marks an always-on run cut at its planned
// virtual-time end (Config.Horizon) with work still in flight — the
// ext-service experiment's normal termination for faulted cells. Deadlock
// marks a run whose event queue drained with ranks still blocked.
const (
	OutcomeCompleted       = cluster.OutcomeCompleted
	OutcomeFalseSuspicion  = cluster.OutcomeFalseSuspicion
	OutcomeHorizon         = cluster.OutcomeHorizon
	OutcomeDeterminantLoss = cluster.OutcomeDeterminantLoss
	OutcomeDiverged        = cluster.OutcomeDiverged
	OutcomeDeadlock        = cluster.OutcomeDeadlock
)

// Link states of the fabric.
const (
	LinkUp       = netmodel.LinkUp
	LinkDegraded = netmodel.LinkDegraded
	LinkDown     = netmodel.LinkDown
)

// Restart-delay distributions.
const (
	DistConstant    = faultplan.DistConstant
	DistUniform     = faultplan.DistUniform
	DistExponential = faultplan.DistExponential
)

// Fault-plan victim policies.
const (
	VictimRoundRobin = faultplan.VictimRoundRobin
	VictimRandom     = faultplan.VictimRandom
	VictimFixed      = faultplan.VictimFixed
)

// Fault-cascade triggers.
const (
	OnKill           = faultplan.OnKill
	OnRestart        = faultplan.OnRestart
	OnRecovered      = faultplan.OnRecovered
	OnCheckpointWave = faultplan.OnCheckpointWave
)

// Fault-outage targets.
const (
	OutageEventLogger = faultplan.OutageEventLogger
	OutageCkptServer  = faultplan.OutageCkptServer
)

// OnlyRank encodes a FaultCascade trigger-rank filter: OfRank's zero
// value matches every rank, so "only rank r" is stored as r+1.
func OnlyRank(r int) int { return faultplan.OnlyRank(r) }

// Reducers lists the piggyback-reduction techniques usable with
// StackVcausal: "vcausal", "manetho", "logon".
func Reducers() []string { return causal.Names() }

// TimelineJSONL renders timeline events as one JSON object per line.
func TimelineJSONL(events []TimelineEvent) []byte { return obs.JSONL(events) }

// TimelineChromeTrace renders timeline events as Chrome trace-event JSON
// (load in Perfetto or chrome://tracing); np and end frame the rank
// tracks and close still-open windows.
func TimelineChromeTrace(events []TimelineEvent, np int, end Time) []byte {
	return obs.ChromeTrace(events, np, end)
}

// ComputeAvailability derives per-run repair/downtime/availability
// figures from a timeline; it matches the cluster's live accounting
// (the mttr_ns / downtime_ns / availability probes) exactly.
func ComputeAvailability(events []TimelineEvent, np int, end Time) AvailabilityMetrics {
	return obs.ComputeMetrics(events, np, end)
}

// NewCluster builds a deployment per cfg (see cluster.New).
func NewCluster(cfg Config) *Cluster { return cluster.New(cfg) }

// NewComm wraps a node in an MPI communicator.
func NewComm(n *Node) *Comm { return mpi.NewComm(n) }

// BuildBenchmark constructs a NAS skeleton instance.
func BuildBenchmark(spec BenchmarkSpec) *Benchmark { return workload.Build(spec) }

// BuildPingPong constructs the NetPIPE ping-pong benchmark.
func BuildPingPong(bytes, reps int) *Benchmark { return workload.BuildPingPong(bytes, reps) }

// BuildService constructs an always-on open-loop request/response service
// workload. The returned instance's Service field collects per-request
// virtual latency, goodput and drop counts; pair it with Config.Horizon
// for a planned virtual-time end instead of kernel completion. Each
// instance holds one run's statistics — build a fresh instance per run.
func BuildService(cfg ServiceConfig) *Benchmark { return workload.BuildService(cfg) }

// FastEthernet returns the paper's 100 Mbit/s switched network model.
func FastEthernet() NetworkConfig { return netmodel.FastEthernet() }

// Sweep expands the spec's grid and executes every cell across a worker
// pool (one worker per CPU unless opts says otherwise), returning ordered,
// JSON/CSV-serializable results. Cells are independent single-threaded
// simulations, so any worker count produces identical results.
func Sweep(spec *SweepSpec, opts SweepOptions) *SweepResults { return harness.Run(spec, opts) }

// SetExperimentRunner installs the sweep options (parallelism, progress
// and error callbacks, trace directory) used by every figure regeneration.
func SetExperimentRunner(opts SweepOptions) { experiment.SetRunnerOptions(opts) }

// Experiment runs one of the paper's evaluation artifacts by name and
// returns its table. Names: "fig1", "fig6a", "fig6b", "fig7", "fig8a",
// "fig8b", "fig9", "fig10", plus the reproduction's extensions (see
// ExperimentNames, e.g. "ext-faultstorm", "ext-elcontribution"). Unknown
// names return nil.
func Experiment(name string) *Table {
	fn, ok := ExperimentIndex()[name]
	if !ok {
		return nil
	}
	return fn()
}

// ExperimentIndex maps experiment names to their table generators.
func ExperimentIndex() map[string]func() *Table {
	idx := make(map[string]func() *Table)
	for name, fn := range experiment.Index() {
		fn := fn
		idx[name] = func() *Table { return fn().Table }
	}
	return idx
}

// ExperimentReports maps experiment names to their report generators
// (table plus raw sweep results).
func ExperimentReports() map[string]func() *ExperimentReport { return experiment.Index() }

// ExperimentNames returns the experiment names in the paper's order,
// followed by the reproduction's extension experiments.
func ExperimentNames() []string { return experiment.Names() }
