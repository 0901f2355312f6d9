package failure

import (
	"testing"

	"mpichv/internal/daemon"
	"mpichv/internal/netmodel"
	"mpichv/internal/obs"
	"mpichv/internal/sim"
	"mpichv/internal/vproto"
)

// suspectWorld is testWorld plus the trivial nil-image checkpoint
// responder every recovery needs.
func suspectWorld(t *testing.T, np int) (*sim.Kernel, []*daemon.Node) {
	t.Helper()
	k, nodes := testWorld(t, np)
	net := nodes[0].Network()
	net.Endpoint(np).SetHandler(func(del netmodel.Delivery) {
		pkt := del.Payload.(*vproto.Packet)
		if pkt.Kind == vproto.PktCkptFetch {
			net.Endpoint(np).Send(pkt.From, 32, &vproto.Packet{Kind: vproto.PktCkptImage, From: np, Incarnation: pkt.Incarnation})
		}
	})
	for _, n := range nodes {
		n.CkptEndpoint = np
	}
	return k, nodes
}

// TestSuspectFencesLiveProcess: a suspected rank whose process is still
// alive at respawn time is a confirmed false suspicion — the stale
// incarnation is fenced, a replacement recovers, and the run completes.
func TestSuspectFencesLiveProcess(t *testing.T) {
	k, nodes := suspectWorld(t, 2)
	progs := []Program{
		func(n *daemon.Node) { n.Compute(60 * sim.Millisecond) },
		func(n *daemon.Node) { n.Compute(time5ms) },
	}
	d := NewDispatcher(k, nodes, progs)
	d.RestartDelay = 10 * sim.Millisecond

	var events []obs.Kind
	d.Observe(func(ev obs.Event) {
		if ev.Rank == 0 {
			events = append(events, ev.Kind)
		}
	})
	d.Launch()
	k.At(20*sim.Millisecond, func() { d.Suspect(0) })
	k.Run()

	if d.Suspicions != 1 || d.FalseSuspicions != 1 {
		t.Fatalf("suspicions=%d false=%d, want 1/1", d.Suspicions, d.FalseSuspicions)
	}
	if d.Restarts != 1 {
		t.Fatalf("restarts=%d, want 1", d.Restarts)
	}
	if !d.AllDone() {
		t.Fatal("run did not complete after the fenced respawn")
	}
	want := []obs.Kind{obs.KindSuspect, obs.KindFenced, obs.KindRestart, obs.KindRecovered, obs.KindFinished}
	if len(events) != len(want) {
		t.Fatalf("event stream %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("event stream %v, want %v", events, want)
		}
	}
}

// TestSuspectOnFinishedOrRestartingIsNoOp: the detector cannot suspect a
// completed rank, and a second suspicion inside the restart window is
// absorbed.
func TestSuspectOnFinishedOrRestartingIsNoOp(t *testing.T) {
	k, nodes := suspectWorld(t, 2)
	progs := []Program{
		func(n *daemon.Node) { n.Compute(40 * sim.Millisecond) },
		func(n *daemon.Node) { n.Compute(sim.Millisecond) },
	}
	d := NewDispatcher(k, nodes, progs)
	d.RestartDelay = 10 * sim.Millisecond
	d.Launch()
	k.At(5*sim.Millisecond, func() { d.Suspect(1) })  // rank 1 already done
	k.At(10*sim.Millisecond, func() { d.Suspect(0) }) // real suspicion
	k.At(12*sim.Millisecond, func() { d.Suspect(0) }) // inside the window: absorbed
	k.Run()
	if d.Suspicions != 1 {
		t.Fatalf("suspicions=%d, want 1 (done rank and in-window repeat are no-ops)", d.Suspicions)
	}
	if !d.AllDone() {
		t.Fatal("run did not complete")
	}
}

// TestSuspectCompletedBehindPartition: the suspected process finishes its
// program during the detection window — there is nothing to recover, no
// respawn happens, and the completion stands. Rank 1 outlasts the window,
// so the kernel is still running when the suspicion resolves.
func TestSuspectCompletedBehindPartition(t *testing.T) {
	k, nodes := suspectWorld(t, 2)
	progs := []Program{
		func(n *daemon.Node) { n.Compute(time5ms) },
		func(n *daemon.Node) { n.Compute(20 * sim.Millisecond) },
	}
	d := NewDispatcher(k, nodes, progs)
	d.RestartDelay = 10 * sim.Millisecond
	d.Launch()
	k.At(2*sim.Millisecond, func() { d.Suspect(0) })
	k.Run()
	if d.Restarts != 0 || d.FalseSuspicions != 0 {
		t.Fatalf("restarts=%d false=%d, want 0/0 (rank completed inside the window)", d.Restarts, d.FalseSuspicions)
	}
	if !d.AllDone() {
		t.Fatal("completion revoked by a suspicion that should have resolved")
	}
	if !d.Alive(0) {
		t.Fatal("rank 0 left marked restarting after its suspicion resolved")
	}
}

// TestKillSupersedesSuspicion: a real kill landing inside the suspicion
// window takes over through the gen guard — one respawn, no false
// suspicion (the process was genuinely dead at respawn time).
func TestKillSupersedesSuspicion(t *testing.T) {
	k, nodes := suspectWorld(t, 2)
	progs := []Program{
		func(n *daemon.Node) { n.Compute(80 * sim.Millisecond) },
		func(n *daemon.Node) { n.Compute(time5ms) },
	}
	d := NewDispatcher(k, nodes, progs)
	d.RestartDelay = 10 * sim.Millisecond
	d.Launch()
	k.At(20*sim.Millisecond, func() { d.Suspect(0) })
	k.At(25*sim.Millisecond, func() { d.Kill(0) })
	k.Run()
	if d.FalseSuspicions != 0 {
		t.Fatalf("false suspicions=%d, want 0 (the kill made it true)", d.FalseSuspicions)
	}
	if d.Restarts != 1 {
		t.Fatalf("restarts=%d, want 1 (gen guard must cancel the suspect respawn)", d.Restarts)
	}
	if !d.AllDone() {
		t.Fatal("run did not complete")
	}
}

// TestRestartDelayFnDrawsPerFault: the per-fault delay hook replaces the
// constant, and each fault draws anew.
func TestRestartDelayFnDrawsPerFault(t *testing.T) {
	k, nodes := suspectWorld(t, 2)
	progs := []Program{
		func(n *daemon.Node) { n.Compute(200 * sim.Millisecond) },
		func(n *daemon.Node) { n.Compute(time5ms) },
	}
	d := NewDispatcher(k, nodes, progs)
	d.RestartDelay = time5ms
	delays := []sim.Time{30 * sim.Millisecond, 50 * sim.Millisecond}
	draws := 0
	d.RestartDelayFn = func() sim.Time {
		delay := delays[draws%len(delays)]
		draws++
		return delay
	}
	var restartTimes []sim.Time
	d.Observe(func(ev obs.Event) {
		if ev.Kind == obs.KindRestart {
			restartTimes = append(restartTimes, ev.T)
		}
	})
	d.Launch()
	k.At(10*sim.Millisecond, func() { d.Kill(0) })
	k.At(100*sim.Millisecond, func() { d.Kill(0) })
	k.Run()
	if draws != 2 {
		t.Fatalf("RestartDelayFn drawn %d times, want 2", draws)
	}
	if len(restartTimes) != 2 {
		t.Fatalf("restarts=%d, want 2", len(restartTimes))
	}
	if restartTimes[0] != 40*sim.Millisecond || restartTimes[1] != 150*sim.Millisecond {
		t.Fatalf("restart times %v, want [40ms 150ms]", restartTimes)
	}
}
