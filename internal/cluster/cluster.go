// Package cluster assembles complete MPICH-V deployments (Figure 5 of the
// paper): computing nodes with their communication daemons, and the
// auxiliary stable servers — Event Logger, checkpoint server, checkpoint
// scheduler and dispatcher — on dedicated endpoints of one simulated
// Fast-Ethernet network.
package cluster

import (
	"fmt"

	"mpichv/internal/checkpoint"
	"mpichv/internal/daemon"
	"mpichv/internal/event"
	"mpichv/internal/eventlogger"
	"mpichv/internal/failure"
	"mpichv/internal/faultplan"
	"mpichv/internal/netmodel"
	"mpichv/internal/obs"
	"mpichv/internal/protocols"
	"mpichv/internal/sim"
	"mpichv/internal/trace"
)

// Stack names selectable in Config.
const (
	StackRawTCP      = "rawtcp"
	StackP4          = "p4"
	StackVdummy      = "vdummy"
	StackVcausal     = "vcausal"
	StackPessimistic = "pessimistic"
	StackCoordinated = "coordinated"
)

// Config describes one deployment.
type Config struct {
	// NP is the number of MPI processes (one per computing node).
	NP int
	// Stack selects the communication stack / fault-tolerance protocol.
	Stack string
	// Reducer selects the piggyback reduction technique for StackVcausal:
	// "vcausal", "manetho" or "logon".
	Reducer string
	// UseEL deploys the Event Logger (StackVcausal only; pessimistic
	// logging always requires it).
	UseEL bool
	// EventLoggers is the number of Event Logger servers (default 1). With
	// more than one, processes are assigned round-robin (rank mod n) and
	// the loggers synchronize their stable arrays — the paper's future-work
	// distribution design.
	EventLoggers int
	// ELSync selects the stability dissemination design for distributed
	// Event Loggers ("exchange" or "broadcast"; default exchange).
	ELSync eventlogger.SyncPolicy

	// HalfDuplex runs the Fast-Ethernet wire half duplex, as the P4 stack
	// always does (the duplex ablation).
	HalfDuplex bool
	// EL is the Event Logger service model; zero value selects the default.
	EL eventlogger.Config

	// CkptPolicy and CkptInterval drive the checkpoint scheduler.
	// PolicyNone / zero interval disables checkpointing. The coordinated
	// stack turns any other policy into PolicyCoordinated's waves.
	CkptPolicy   checkpoint.Policy
	CkptInterval sim.Time

	// RestartDelay models fault detection plus relaunch (default
	// failure.DefaultRestartDelay).
	RestartDelay sim.Time

	// Faults, when non-nil, is a declarative multi-failure scenario
	// (storms, correlated kills, cascades, server outages) compiled onto
	// the dispatcher at PrepareRun. The plan is read-only and may be
	// shared across deployments; its stochastic draws derive from
	// Faults.Seed (falling back to Seed).
	Faults *faultplan.Plan

	// Horizon, when positive, is an always-on run's planned end: the
	// kernel stops at this virtual time if events are still pending, and
	// the run classifies as OutcomeHorizon rather than OutcomeDiverged.
	// It keeps no run alive: a run whose queue drains earlier, with
	// programs parked, is OutcomeDeadlock. Service workloads use it as
	// their evaluation window's hard edge; batch runs that finish earlier
	// stop at completion as usual. Zero keeps the run-to-completion mode.
	Horizon sim.Time

	// AppStateBytes is the modeled checkpoint image size of the
	// application state (default 8 MB).
	AppStateBytes int64

	// Seed drives all stochastic choices (default 1).
	Seed int64

	// Trace enables the observability layer: a timeline Recorder wired
	// into every emission site (dispatcher lifecycle, recovery phases,
	// checkpoints, fabric operations, Event Logger marks) plus the
	// virtual-time gauge sampler. Tracing only observes — it draws no
	// randomness and mutates no simulation state — so a traced run
	// produces the same results as an untraced one.
	Trace bool

	// RecordDeliveries enables per-step delivery logging on every node
	// (consistency validation in tests).
	RecordDeliveries bool
}

// Cluster is a wired deployment ready to run programs.
type Cluster struct {
	Cfg        Config
	K          *sim.Kernel
	Net        *netmodel.Network
	Nodes      []*daemon.Node
	ELs        []*eventlogger.Server // Event Loggers (nil when none deployed)
	CkptServer *checkpoint.Server
	Scheduler  *checkpoint.Scheduler
	Dispatcher *failure.Dispatcher
	// Faults is the compiled fault-scenario engine (nil when the config
	// carries no plan); its counters classify every injected fault.
	Faults *faultplan.Engine

	// Timeline is the run's event recorder (nil unless Cfg.Trace is set;
	// every emission site is nil-safe).
	Timeline *obs.Recorder

	// DetLoss is the run's determinant loss, nil when none was reported.
	// The kernel stops at the first report, so a run holds at most one.
	DetLoss *daemon.DeterminantLoss

	// FalseSuspicions records every confirmed false suspicion: a live rank
	// declared dead (a partition outlasted the detector's patience) whose
	// stale incarnation was fenced when the replacement spawned. Unlike a
	// determinant loss it does not stop the run — surviving it is the
	// point — but it flips the outcome to OutcomeFalseSuspicion.
	FalseSuspicions []FalseSuspicion

	// killedAt / recoveredAt track each rank's latest kill and recovery
	// times (-1 = never), feeding determinant-loss diagnostics;
	// suspectedAt tracks the latest detector declaration per rank.
	killedAt    []sim.Time
	recoveredAt []sim.Time
	suspectedAt []sim.Time
	// down is the availability accounting, fed by trackLifecycle (always on
	// — it costs a few comparisons per lifecycle event, not per message).
	down obs.Downtime
}

// New builds a cluster per cfg. Endpoint layout: 0..NP-1 computing nodes,
// NP Event Logger, NP+1 checkpoint server, NP+2 scheduler/dispatcher.
func New(cfg Config) *Cluster {
	if cfg.NP <= 0 {
		panic("cluster: NP must be positive")
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	// An all-zero cost model means "use the default".
	if cfg.EL == (eventlogger.Config{}) {
		cfg.EL = eventlogger.DefaultConfig()
	}
	if cfg.RestartDelay == 0 {
		cfg.RestartDelay = failure.DefaultRestartDelay
	}
	if cfg.AppStateBytes == 0 {
		cfg.AppStateBytes = 8 << 20
	}
	if cfg.CkptPolicy == "" {
		cfg.CkptPolicy = checkpoint.PolicyNone
	}
	if cfg.EventLoggers == 0 {
		cfg.EventLoggers = 1
	}
	if cfg.ELSync == "" {
		cfg.ELSync = eventlogger.SyncExchange
	}
	if cfg.Stack == StackCoordinated && cfg.CkptPolicy != checkpoint.PolicyNone {
		cfg.CkptPolicy = checkpoint.PolicyCoordinated
	}

	stack := stackFor(cfg.Stack)
	k := sim.NewKernel(cfg.Seed)
	elFirst := cfg.NP
	ckptEndpoint := cfg.NP + cfg.EventLoggers
	schedEndpoint := ckptEndpoint + 1
	net := netmodel.New(k, netmodel.Config{FullDuplex: !(cfg.HalfDuplex || stack.HalfDuplex)}, schedEndpoint+1)

	c := &Cluster{Cfg: cfg, K: k, Net: net}
	if cfg.Trace {
		c.Timeline = obs.NewRecorder()
	}
	// One backing array for the per-rank lifecycle timestamps keeps the
	// always-on availability accounting from costing an extra allocation
	// per deployment (TestHotPathAllocations holds whole cells to a
	// ceiling of mallocs per message).
	times := make([]sim.Time, 4*cfg.NP)
	c.killedAt = times[:cfg.NP]
	c.recoveredAt = times[cfg.NP : 2*cfg.NP]
	c.suspectedAt = times[2*cfg.NP : 3*cfg.NP]
	c.down = obs.NewDowntime(times[3*cfg.NP:])
	for r := 0; r < cfg.NP; r++ {
		c.killedAt[r], c.recoveredAt[r], c.suspectedAt[r] = -1, -1, -1
	}

	wantEL := cfg.Stack == StackPessimistic || (cfg.Stack == StackVcausal && cfg.UseEL)
	if wantEL {
		c.ELs = eventlogger.NewGroup(k, net, elFirst, cfg.NP, cfg.EventLoggers, cfg.ELSync, cfg.EL)
		for _, s := range c.ELs {
			s.Obs = c.Timeline
		}
	}
	c.CkptServer = checkpoint.NewServer(k, net, ckptEndpoint, cfg.NP, checkpoint.DefaultServerConfig())
	c.Scheduler = checkpoint.NewScheduler(k, net, schedEndpoint, cfg.NP, cfg.CkptPolicy, cfg.CkptInterval)
	if c.Timeline != nil {
		c.Scheduler.ObserveWaves(func(epoch int) {
			c.Timeline.Record(k.Now(), obs.KindCkptWave, -1, int64(epoch), "")
		})
	}

	// Determinant loss is a first-class outcome: recoveries check missing
	// determinants against the whole deployment and report a genuine loss
	// to the cluster instead of panicking.
	lossCheck := func(creator event.Rank, from, to uint64) []bool {
		return daemon.Witnessed(c.Nodes, net, creator, from, to)
	}
	for r := 0; r < cfg.NP; r++ {
		proto := protoFor(cfg, event.Rank(r))
		n := daemon.NewNode(k, net, event.Rank(r), cfg.NP, stack, proto)
		n.CkptEndpoint = ckptEndpoint
		n.AppStateBytes = cfg.AppStateBytes
		n.RecordDeliveries = cfg.RecordDeliveries
		if wantEL {
			n.ELEndpoint = eventlogger.EndpointFor(c.ELs, event.Rank(r))
		}
		n.LossCheck = lossCheck
		n.OnDeterminantLoss = c.recordDetLoss
		n.Obs = c.Timeline
		c.Nodes = append(c.Nodes, n)
	}
	return c
}

func stackFor(name string) daemon.StackConfig {
	switch name {
	case StackRawTCP:
		return daemon.RawTCP()
	case StackP4:
		return daemon.P4()
	case StackVdummy, StackVcausal, StackPessimistic, StackCoordinated:
		return daemon.Vdaemon()
	}
	panic(fmt.Sprintf("cluster: unknown stack %q", name))
}

func protoFor(cfg Config, rank event.Rank) daemon.Protocol {
	switch cfg.Stack {
	case StackRawTCP, StackP4, StackVdummy:
		return protocols.NewVdummy()
	case StackVcausal:
		reducer := cfg.Reducer
		if reducer == "" {
			reducer = "vcausal"
		}
		return protocols.NewVcausal(reducer, rank, cfg.NP)
	case StackPessimistic:
		return protocols.NewPessimistic()
	case StackCoordinated:
		return protocols.NewCoordinated()
	}
	panic(fmt.Sprintf("cluster: unknown stack %q", cfg.Stack))
}

// Run launches one program per rank and executes the simulation until all
// programs complete, a determinant loss stops the run, the event queue
// drains, or maxVirtual elapses. The result carries the structured
// Outcome; callers that assume completion chain .MustCompleted().
func (c *Cluster) Run(programs []failure.Program, maxVirtual sim.Time) RunResult {
	d := c.PrepareRun(programs)
	d.Launch()
	return c.RunLaunched(maxVirtual)
}

// PrepareRun wires a dispatcher for the programs without launching, so
// callers can schedule faults first. A fault plan in the config is
// compiled here, onto the fresh dispatcher.
func (c *Cluster) PrepareRun(programs []failure.Program) *failure.Dispatcher {
	if len(programs) != c.Cfg.NP {
		panic("cluster: one program per rank required")
	}
	d := failure.NewDispatcher(c.K, c.Nodes, programs)
	d.Coordinated = c.Cfg.Stack == StackCoordinated
	d.RestartDelay = c.Cfg.RestartDelay
	c.Dispatcher = d
	c.trackLifecycle(d)
	c.startSampler()
	if c.Cfg.Horizon > 0 {
		// The horizon is a background stop, not a RunUntil cap: it cuts a
		// run still busy there, which Outcome classifies as planned, but
		// it does not keep a run alive, so a queue that drains first is a
		// deadlock at that instant.
		c.K.Background(c.Cfg.Horizon, c.K.Stop)
	}
	if c.Cfg.Faults != nil {
		eng, err := faultplan.Apply(faultplan.Targets{
			Kernel:       c.K,
			Dispatcher:   d,
			CkptServer:   c.CkptServer,
			Network:      c.Net,
			Seed:         c.Cfg.Seed,
			Recorder:     c.Timeline,
			EventLoggers: c.ELs,
		}, c.Cfg.Faults)
		if err != nil {
			panic(fmt.Sprintf("cluster: invalid fault plan: %v", err))
		}
		c.Faults = eng
	}
	return d
}

// RunLaunched executes an already-launched deployment until completion,
// the first determinant loss, a drained event queue, or the maxVirtual
// safety deadline, and returns the structured result. Deadlock and
// divergence are not panics either: callers decide (tables render them,
// tests chain MustCompleted).
func (c *Cluster) RunLaunched(maxVirtual sim.Time) RunResult {
	end := c.K.RunUntil(maxVirtual)
	return RunResult{
		Outcome:         c.Outcome(),
		End:             end,
		DetLoss:         c.DetLoss,
		FalseSuspicions: c.FalseSuspicions,
	}
}

// Close ends the deployment's simulated processes (ranks still serving
// peers, the Event Logger, the schedulers), which otherwise stay blocked —
// with the whole cluster reachable from their stacks — for the life of the
// program. Run and RunLaunched do not call it: their callers may inspect
// the nodes or run on. Closing twice is a no-op; a closed cluster must not
// be run again.
func (c *Cluster) Close() { c.K.Close() }

// AggregateStats sums all per-node probes.
func (c *Cluster) AggregateStats() trace.Stats {
	var total trace.Stats
	for _, n := range c.Nodes {
		total.Add(n.Stats())
	}
	return total
}

// startSampler launches the virtual-time gauge sampler on a traced
// deployment (no-op otherwise). Called from PrepareRun so the live-rank
// gauge can read the freshly wired dispatcher.
func (c *Cluster) startSampler() {
	if c.Timeline == nil {
		return
	}
	gauges := []obs.Gauge{
		{Kind: obs.KindGaugeHeldDets, Fn: c.heldDeterminants},
		{Kind: obs.KindGaugeSenderLogBytes, Fn: c.senderLogBytes},
		{Kind: obs.KindGaugeLiveRanks, Fn: c.liveRanks},
	}
	if c.ELs != nil {
		gauges = append(gauges, obs.Gauge{Kind: obs.KindGaugeELBacklog, Fn: c.elBacklog})
	}
	obs.NewSampler(c.K, c.Timeline, gauges).Start()
}

func (c *Cluster) heldDeterminants() int64 {
	var total int64
	for _, n := range c.Nodes {
		if h, ok := n.Proto.(interface{ Held() int }); ok {
			total += int64(h.Held())
		}
	}
	return total
}

func (c *Cluster) senderLogBytes() int64 {
	var total int64
	for _, n := range c.Nodes {
		total += n.Log.Bytes()
	}
	return total
}

func (c *Cluster) elBacklog() int64 {
	var m int64
	for _, s := range c.ELs {
		m = max(m, int64(s.QueueLen()))
	}
	return m
}

func (c *Cluster) liveRanks() int64 {
	if c.Dispatcher == nil {
		return int64(c.Cfg.NP)
	}
	var live int64
	for r := 0; r < c.Cfg.NP; r++ {
		if c.Dispatcher.Alive(r) {
			live++
		}
	}
	return live
}

// --- Availability figures (obs.Downtime, fed by trackLifecycle) ---

// Repairs counts completed fault repairs (down windows closed by a
// recovery).
func (c *Cluster) Repairs() int { return c.down.Metrics(c.K.Now()).Repairs }

// DowntimeTotal returns the accumulated rank-downtime, counting windows
// still open at the current virtual time.
func (c *Cluster) DowntimeTotal() sim.Time { return c.down.Metrics(c.K.Now()).Downtime }

// MTTR returns the mean time to repair across completed repairs (0 when
// no repair completed).
func (c *Cluster) MTTR() sim.Time { return c.down.Metrics(c.K.Now()).MTTR }

// Availability returns the rank-availability fraction over the run so
// far: 1 − DowntimeTotal / (NP · now). A zero-length run is fully
// available.
func (c *Cluster) Availability() float64 { return c.down.Metrics(c.K.Now()).Availability }
