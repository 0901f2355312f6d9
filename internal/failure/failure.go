// Package failure implements the MPICH-V dispatcher: it launches the MPI
// processes, injects faults, detects them (modeled as a fixed restart
// delay) and relaunches crashed process instances — rolling back only the
// crashed process for message-logging protocols, or every process for
// coordinated checkpointing.
package failure

import (
	"fmt"

	"mpichv/internal/daemon"
	"mpichv/internal/obs"
	"mpichv/internal/sim"
)

// Program is one rank's application code, run against its node after the
// daemon finishes any recovery procedure.
type Program func(n *daemon.Node)

// DefaultRestartDelay is the fault detection plus relaunch time a
// deployment assumes unless it sets its own.
const DefaultRestartDelay = 250 * sim.Millisecond

// Dispatcher supervises the MPI run. It stops its kernel the moment the
// last program completes.
type Dispatcher struct {
	k        *sim.Kernel
	nodes    []*daemon.Node
	programs []Program
	procs    []*sim.Proc

	// Coordinated selects rollback-all semantics on any fault.
	Coordinated bool
	// RestartDelay models failure detection plus process relaunch.
	RestartDelay sim.Time
	// RestartDelayFn, when non-nil, replaces the constant RestartDelay with
	// a per-fault draw (fault plans install restart-delay distributions
	// here; draws happen in kill order, which the kernel makes
	// deterministic).
	RestartDelayFn func() sim.Time

	// gen guards against overlapping kill/restart races: a restart only
	// fires if no newer kill superseded it.
	gen []int64

	// restarting[r] is true from a kill until the respawn fires.
	restarting []bool

	// launched flips at Launch; kills requested earlier are deferred.
	launched     bool
	pendingKills []int

	// observers receive lifecycle events (fault-scenario engines, tests).
	observers []func(obs.Event)

	// Kills and Restarts count fault injections and relaunches.
	Kills    int64
	Restarts int64
	// Suspicions counts detector declarations made through Suspect;
	// FalseSuspicions counts the ones whose process was still alive when
	// the replacement incarnation fenced it (both incarnations observed
	// alive).
	Suspicions      int64
	FalseSuspicions int64
}

// NewDispatcher builds a dispatcher for the given nodes and programs.
func NewDispatcher(k *sim.Kernel, nodes []*daemon.Node, programs []Program) *Dispatcher {
	if len(nodes) != len(programs) {
		panic("failure: nodes and programs length mismatch")
	}
	return &Dispatcher{
		k:            k,
		nodes:        nodes,
		programs:     programs,
		procs:        make([]*sim.Proc, len(nodes)),
		RestartDelay: DefaultRestartDelay,
		gen:          make([]int64, len(nodes)),
		restarting:   make([]bool, len(nodes)),
	}
}

// Observe subscribes fn to the dispatcher's lifecycle event stream, the
// timeline's rank-lifecycle kinds obs.KindKill … obs.KindFinished. Every
// kill, suspicion, fence, restart, recovery completion and program
// completion is reported, in kernel event order; observers run
// synchronously and must not call Kill directly (schedule it through the
// kernel instead).
func (d *Dispatcher) Observe(fn func(obs.Event)) {
	d.observers = append(d.observers, fn)
}

func (d *Dispatcher) emit(kind obs.Kind, r int) {
	if len(d.observers) == 0 {
		return
	}
	ev := obs.Event{T: d.k.Now(), Kind: kind, Rank: r}
	for _, fn := range d.observers {
		fn(ev)
	}
}

// Launch spawns every rank's initial incarnation and applies any kills
// requested before launch.
func (d *Dispatcher) Launch() {
	if d.launched {
		panic("failure: Launch called twice")
	}
	d.launched = true
	for r := range d.nodes {
		d.spawn(r, false, false)
	}
	pending := d.pendingKills
	d.pendingKills = nil
	for _, r := range pending {
		d.Kill(r)
	}
}

// NP returns the number of supervised ranks.
func (d *Dispatcher) NP() int { return len(d.nodes) }

// Alive reports whether rank r currently has a spawned incarnation (it may
// still be inside its recovery procedure, between obs.KindRestart and
// obs.KindRecovered). A rank is not alive before Launch or inside the
// detection/relaunch window after a kill.
func (d *Dispatcher) Alive(r int) bool { return d.launched && !d.restarting[r] }

// RankDone reports whether rank r's program has completed.
func (d *Dispatcher) RankDone(r int) bool { return d.nodes[r].Done() }

func (d *Dispatcher) spawn(r int, recovery, crashed bool) {
	n := d.nodes[r]
	prog := d.programs[r]
	name := fmt.Sprintf("rank%d", r)
	d.restarting[r] = false
	d.procs[r] = d.k.Spawn(name, func(p *sim.Proc) {
		n.Bind(p)
		if recovery {
			d.emit(obs.KindRestart, r)
			if d.Coordinated {
				n.PrepareRollback(crashed)
			} else {
				n.PrepareRecovery()
			}
			d.emit(obs.KindRecovered, r)
		}
		prog(n)
		n.Finish()
		d.emit(obs.KindFinished, r)
		if d.AllDone() {
			d.k.Stop()
		}
		// Keep the daemon alive after the program ends: peers that are
		// still running may need this node's held determinants and logged
		// payloads for their recovery (the real Vdaemon outlives the MPI
		// process until the dispatcher tears the run down).
		for !d.AllDone() {
			n.WaitPacket()
		}
	})
	if recovery {
		d.Restarts++
	}
}

// Kill injects a fault on rank r: the process dies now and is relaunched
// after RestartDelay. Under coordinated checkpointing every process is
// rolled back. Killing a rank whose program already finished is a no-op:
// its lingering daemon only serves peers, and respawning it would re-run
// the completed program. A kill requested before Launch is deferred and
// applied at launch time (covering fault schedules compiled before the
// run exists). Killing a rank already inside its restart window is legal
// and extends the outage: the gen guard cancels the superseded respawn.
func (d *Dispatcher) Kill(r int) {
	if r < 0 || r >= len(d.nodes) {
		panic(fmt.Sprintf("failure: Kill(%d) out of range (np=%d)", r, len(d.nodes)))
	}
	if !d.launched {
		d.pendingKills = append(d.pendingKills, r)
		return
	}
	if d.nodes[r].Done() {
		return
	}
	d.Kills++
	// The victims: rank r, or under rollback-all every rank — including
	// ones whose program already finished, because the restored global
	// state predates their completion. Their completion is revoked now, so
	// fault targeting sees them as running during the restart window
	// rather than only once the respawn binds.
	lo, hi := r, r+1
	if d.Coordinated {
		lo, hi = 0, len(d.nodes)
	}
	for i := lo; i < hi; i++ {
		d.gen[i]++
		d.restarting[i] = true
		d.nodes[i].Unfinish()
		d.procs[i].Kill()
	}
	d.emit(obs.KindKill, r)
	gen := append([]int64(nil), d.gen[lo:hi]...)
	d.k.After(d.restartDelay(), func() {
		for i := lo; i < hi; i++ {
			if d.gen[i] == gen[i-lo] {
				d.spawn(i, true, i == r)
			}
		}
	})
}

// restartDelay resolves the detection-plus-relaunch delay for one fault.
func (d *Dispatcher) restartDelay() sim.Time {
	if d.RestartDelayFn != nil {
		return d.RestartDelayFn()
	}
	return d.RestartDelay
}

// Suspect declares rank r dead without killing its process — the failure
// detector's view when a network partition makes a live rank unreachable.
// A replacement incarnation is scheduled after the restart delay, exactly
// as for a kill; when the respawn fires and the suspected process is still
// alive, the suspicion was false: the stale incarnation is fenced
// (terminated — in the real system its connections are refused once the
// dispatcher publishes the new incarnation) and obs.KindFenced is emitted
// so the deployment can announce the new incarnation to every peer.
// Suspecting a finished or already-restarting rank is a no-op; under
// coordinated checkpointing a suspicion is equivalent to a kill
// (rollback-all has no per-rank fencing to model). A suspicion before
// Launch is deferred like a kill.
func (d *Dispatcher) Suspect(r int) {
	if r < 0 || r >= len(d.nodes) {
		panic(fmt.Sprintf("failure: Suspect(%d) out of range (np=%d)", r, len(d.nodes)))
	}
	if d.Coordinated {
		d.Kill(r)
		return
	}
	if !d.launched {
		d.pendingKills = append(d.pendingKills, r)
		return
	}
	if d.nodes[r].Done() || d.restarting[r] {
		return
	}
	d.Suspicions++
	d.gen[r]++
	gen := d.gen[r]
	d.restarting[r] = true
	stale := d.procs[r]
	d.emit(obs.KindSuspect, r)
	d.k.After(d.restartDelay(), func() {
		if d.gen[r] != gen {
			return // superseded by a real kill (or another suspicion path)
		}
		if d.nodes[r].Done() {
			// The suspected process completed behind the partition; there
			// is nothing to recover and respawning would re-run the
			// finished program.
			d.restarting[r] = false
			return
		}
		if stale != nil && !stale.Killed() && !stale.Finished() {
			// Both incarnations observed alive: fence the stale one now,
			// before its replacement binds the node.
			d.FalseSuspicions++
			stale.Kill()
			d.emit(obs.KindFenced, r)
		}
		d.spawn(r, true, true)
	})
}

// ScheduleFault arranges for rank r to be killed at virtual time at.
func (d *Dispatcher) ScheduleFault(at sim.Time, r int) {
	d.k.At(at, func() {
		if !d.AllDone() {
			d.Kill(r)
		}
	})
}

// PeriodicFaults kills one process every interval (cycling through the
// ranks deterministically, skipping ranks whose program already finished)
// until the application completes. This drives the paper's Figure 1
// fault-frequency sweep.
func (d *Dispatcher) PeriodicFaults(interval sim.Time) {
	if interval <= 0 {
		return
	}
	victim := 0
	var tick func()
	tick = func() {
		if d.AllDone() {
			return
		}
		// Cycle to the next rank that is still running: killing a finished
		// rank would be skipped by Kill, silently dropping the fault.
		for i := 0; i < len(d.nodes); i++ {
			v := (victim + i) % len(d.nodes)
			if !d.nodes[v].Done() {
				d.Kill(v)
				victim = (v + 1) % len(d.nodes)
				break
			}
		}
		d.k.After(interval, tick)
	}
	d.k.After(interval, tick)
}

// AllDone reports whether every rank's program has completed.
func (d *Dispatcher) AllDone() bool {
	for _, n := range d.nodes {
		if !n.Done() {
			return false
		}
	}
	return true
}
