package cluster

import (
	"fmt"

	"mpichv/internal/daemon"
	"mpichv/internal/event"
	"mpichv/internal/failure"
	"mpichv/internal/netmodel"
	"mpichv/internal/obs"
	"mpichv/internal/sim"
)

// Outcome classifies how a deployment run ended. Determinant loss — the
// paper's known limitation of EL-less causal logging under concurrent
// failures — is a result to be measured, not an error: it gets its own
// outcome instead of a panic.
type Outcome string

// Run outcomes.
const (
	// OutcomeCompleted: every rank's program finished.
	OutcomeCompleted Outcome = "completed"
	// OutcomeFalseSuspicion: every rank's program finished, but at least
	// one rank was falsely declared dead along the way — both incarnations
	// were observed alive and the stale one had to be fenced (a partition
	// made a live rank unreachable past the detector's patience). The run
	// is complete and consistent; the outcome is the diagnostic that the
	// fail-stop assumption was violated and survived only thanks to the
	// incarnation fence (see Cluster.FalseSuspicions).
	OutcomeFalseSuspicion Outcome = "false-suspicion"
	// OutcomeDeterminantLoss: a recovery could not reassemble its replay
	// set because every copy of some determinants died with crashed peers;
	// the run stopped at the first detection (see Cluster.DetLosses).
	OutcomeDeterminantLoss Outcome = "determinant-loss"
	// OutcomeHorizon: the deployment ran to its configured virtual-time
	// horizon (Config.Horizon) with programs still pending — the planned
	// end of an always-on run, not a failure. Service experiments read
	// their SLO probes (latency quantiles, goodput, drops) off exactly
	// this state.
	OutcomeHorizon Outcome = "horizon"
	// OutcomeDiverged: the run was still pending at its virtual-time cap.
	OutcomeDiverged Outcome = "diverged"
	// OutcomeDeadlock: the kernel ran out of events with programs still
	// pending, before its cap and without being stopped — every blocked
	// rank waits for something no future event can bring.
	OutcomeDeadlock Outcome = "deadlock"
)

// FalseSuspicion records one confirmed false suspicion: the detector
// declared a live rank dead and its stale incarnation was fenced when the
// replacement spawned.
type FalseSuspicion struct {
	// Rank is the falsely suspected rank.
	Rank int `json:"rank"`
	// SuspectedAt is the virtual time of the detector's declaration.
	SuspectedAt sim.Time `json:"suspected_at_ns"`
	// FencedAt is the virtual time the stale incarnation was fenced (the
	// replacement's spawn instant).
	FencedAt sim.Time `json:"fenced_at_ns"`
	// Incarnation is the replacement incarnation announced to the peers.
	Incarnation int `json:"incarnation"`
}

// RunResult is the structured outcome of one deployment run.
type RunResult struct {
	// Outcome classifies how the run ended.
	Outcome Outcome
	// End is the final virtual time: the completion time when Outcome is
	// OutcomeCompleted (or OutcomeFalseSuspicion), otherwise the time the
	// run stopped.
	End sim.Time
	// DetLoss carries the diagnostics of the first determinant loss (nil
	// unless Outcome is OutcomeDeterminantLoss).
	DetLoss *daemon.DeterminantLoss
	// FalseSuspicions carries the confirmed false suspicions observed
	// during the run (non-empty when Outcome is OutcomeFalseSuspicion).
	FalseSuspicions []FalseSuspicion
}

// MustCompleted returns the completion time, panicking on any other
// outcome — the loud-failure path for callers whose downstream arithmetic
// assumes a finished run (the legacy Run contract). A completion that
// survived false suspicion is a completion.
func (r RunResult) MustCompleted() sim.Time {
	switch r.Outcome {
	case OutcomeCompleted, OutcomeFalseSuspicion:
		return r.End
	case OutcomeDeterminantLoss:
		panic(fmt.Sprintf("cluster: determinant loss: %v", *r.DetLoss))
	default:
		panic(fmt.Sprintf("cluster: run did not complete: outcome %q at %v", r.Outcome, r.End))
	}
}

// Outcome classifies the current run state: call it after the kernel
// stopped (RunLaunched assembles it into a RunResult).
func (c *Cluster) Outcome() Outcome {
	if c.Dispatcher != nil && c.Dispatcher.AllDone() {
		if len(c.FalseSuspicions) > 0 {
			return OutcomeFalseSuspicion
		}
		return OutcomeCompleted
	}
	if len(c.DetLosses) > 0 {
		return OutcomeDeterminantLoss
	}
	if c.Cfg.Horizon > 0 && c.K.Now() >= c.Cfg.Horizon {
		return OutcomeHorizon
	}
	if !c.K.Stopped() && c.K.Drained() {
		return OutcomeDeadlock
	}
	return OutcomeDiverged
}

// FirstDetLoss returns the first recorded determinant loss, or nil.
func (c *Cluster) FirstDetLoss() *daemon.DeterminantLoss {
	if len(c.DetLosses) == 0 {
		return nil
	}
	return &c.DetLosses[0]
}

// recordDetLoss is every node's OnDeterminantLoss handler: it completes
// the diagnostics with deployment-level context (detection time, which
// peers' death or recovery overlapped the victim's failure), records the
// loss and stops the kernel — the run's outcome is decided.
func (c *Cluster) recordDetLoss(dl daemon.DeterminantLoss) {
	dl.At = c.K.Now()
	dl.DeadPeers = c.concurrentDead(dl.Victim)
	c.DetLosses = append(c.DetLosses, dl)
	c.Timeline.Record(dl.At, obs.KindDetLoss, int(dl.Victim), int64(dl.Lost), "")
	c.K.Stop()
}

// concurrentDead lists the ranks whose latest death-to-recovery interval
// overlapped the victim's current outage — the candidates that held the
// only copies of the lost determinants.
func (c *Cluster) concurrentDead(victim event.Rank) []event.Rank {
	if c.Dispatcher == nil {
		return nil
	}
	tv := c.killedAt[victim]
	var dead []event.Rank
	for r := 0; r < c.Cfg.NP; r++ {
		if event.Rank(r) == victim || c.killedAt[r] < 0 {
			continue
		}
		stillDown := c.recoveredAt[r] < c.killedAt[r]
		if stillDown || tv < 0 || c.recoveredAt[r] >= tv {
			dead = append(dead, event.Rank(r))
		}
	}
	return dead
}

// witnessed is every node's LossCheck: an omniscient, side-effect-free
// scan over all nodes for surviving copies of creator's determinants with
// clocks in [from, to], returned as a bitmap indexed clock-from. Recovery
// collection already covers everything peers *respond* with; this
// additionally sees latent copies still sitting in queued piggybacks,
// distinguishing a benign late merge from a genuine loss. One linear pass
// per node keeps the probe cheap against the unbounded held sets of
// EL-less deployments.
func (c *Cluster) witnessed(creator event.Rank, from, to uint64) []bool {
	out := make([]bool, to-from+1)
	mark := func(clock uint64) { out[clock-from] = true }
	for _, n := range c.Nodes {
		if n.Rank() == creator {
			continue
		}
		n.MarkWitnessedDeterminants(creator, from, to, mark)
	}
	// Messages between send and arrival exist only on the wire; a
	// piggyback copy riding one still reaches a live peer, so it counts
	// as a witness too — unless its sender incarnation has been fenced
	// (the packet will be discarded on arrival, so its copies are lost,
	// not latent). Deliveries held on a partitioned link are still in
	// flight and still count: a heal re-delivers them.
	c.Net.RangeInFlight(func(d netmodel.Delivery) bool {
		if src, inc, ok := daemon.AppIncarnation(d); ok && inc < c.announcedEpoch[src] {
			return true
		}
		daemon.MarkWitnessedInDelivery(d, creator, from, to, mark)
		return true
	})
	return out
}

// trackLifecycle subscribes to the dispatcher's event stream: every event
// reaches the timeline and the availability accounting; kill and recovery
// times feed determinant-loss diagnostics; a fence event (a
// confirmed false suspicion) is recorded and its replacement incarnation
// announced to every peer daemon — the simulation's equivalent of the
// dispatcher publishing a restarted rank's new connection identity, which
// is what lets survivors refuse the stale incarnation's traffic when a
// healed partition releases it.
func (c *Cluster) trackLifecycle(d *failure.Dispatcher) {
	d.Observe(func(ev obs.Event) {
		c.Timeline.Record(ev.T, ev.Kind, ev.Rank, 0, "")
		c.down.Observe(ev)
		switch ev.Kind {
		case obs.KindKill, obs.KindSuspect:
			c.killedAt[ev.Rank] = ev.T
			if ev.Kind == obs.KindSuspect {
				c.suspectedAt[ev.Rank] = ev.T
			}
		case obs.KindRecovered:
			c.recoveredAt[ev.Rank] = ev.T
		case obs.KindFenced:
			next := c.Nodes[ev.Rank].NextIncarnation()
			c.announcedEpoch[ev.Rank] = next
			c.Nodes[ev.Rank].MarkFencedRestart()
			for r, n := range c.Nodes {
				if r != ev.Rank {
					n.FenceIncarnation(event.Rank(ev.Rank), next)
				}
			}
			c.FalseSuspicions = append(c.FalseSuspicions, FalseSuspicion{
				Rank:        ev.Rank,
				SuspectedAt: c.suspectedAt[ev.Rank],
				FencedAt:    ev.T,
				Incarnation: next,
			})
		}
	})
}
