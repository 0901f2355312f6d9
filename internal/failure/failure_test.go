package failure

import (
	"testing"

	"mpichv/internal/causal/sparsevec"
	"mpichv/internal/daemon"
	"mpichv/internal/event"
	"mpichv/internal/netmodel"
	"mpichv/internal/obs"
	"mpichv/internal/sim"
	"mpichv/internal/vproto"
)

// inertProto satisfies daemon.Protocol with no behaviour; dispatcher tests
// only exercise process lifecycle, not logging.
type inertProto struct{}

func (*inertProto) PreSend(*daemon.Node, *vproto.Message)                       {}
func (*inertProto) OnDeliver(n *daemon.Node, m *vproto.Message)                 { n.CreateDeterminant(m) }
func (*inertProto) OnControl(*daemon.Node, *vproto.Packet)                      {}
func (*inertProto) TakeSnapshot(*daemon.Node)                                   {}
func (*inertProto) Snapshot(*daemon.Node, *vproto.CheckpointImage)              {}
func (*inertProto) Restore(*daemon.Node, *vproto.CheckpointImage)               {}
func (*inertProto) Integrate(*daemon.Node, []event.Determinant, *sparsevec.Vec) {}
func (*inertProto) HeldFor(event.Rank) []event.Determinant                      { return nil }

func testWorld(t *testing.T, np int) (*sim.Kernel, []*daemon.Node) {
	t.Helper()
	k := sim.NewKernel(1)
	net := netmodel.New(k, netmodel.FastEthernet(), np+2)
	nodes := make([]*daemon.Node, np)
	for r := range nodes {
		nodes[r] = daemon.NewNode(k, net, event.Rank(r), np,
			daemon.Vdaemon(), &inertProto{})
	}
	return k, nodes
}

func TestLaunchRunsAllPrograms(t *testing.T) {
	k, nodes := testWorld(t, 3)
	ran := make([]bool, 3)
	progs := make([]Program, 3)
	for r := range progs {
		r := r
		progs[r] = func(n *daemon.Node) {
			n.Compute(sim.Millisecond)
			ran[r] = true
		}
	}
	d := NewDispatcher(k, nodes, progs)
	d.Launch()
	k.Run()
	for r, ok := range ran {
		if !ok {
			t.Errorf("rank %d never ran", r)
		}
	}
	if !d.AllDone() {
		t.Error("AllDone = false after completion")
	}
}

func TestOnAllDoneFires(t *testing.T) {
	k, nodes := testWorld(t, 2)
	progs := []Program{
		func(n *daemon.Node) { n.Compute(sim.Millisecond) },
		func(n *daemon.Node) { n.Compute(2 * sim.Millisecond) },
	}
	d := NewDispatcher(k, nodes, progs)
	var firedAt sim.Time
	d.OnAllDone = func() { firedAt = k.Now() }
	d.Launch()
	k.Run()
	if firedAt != 2*sim.Millisecond {
		t.Fatalf("OnAllDone fired at %v, want 2ms", firedAt)
	}
}

func TestScheduleFaultKillsAndRestarts(t *testing.T) {
	k, nodes := testWorld(t, 2)
	// Programs do nothing except compute so there is nothing to recover;
	// the dispatcher must still kill and respawn rank 0. The restarted
	// incarnation calls PrepareRecovery, which needs a checkpoint server:
	// install a trivial nil-image responder.
	net := nodes[0].Network()
	net.Endpoint(2).SetHandler(func(del netmodel.Delivery) {
		pkt := del.Payload.(*vproto.Packet)
		if pkt.Kind == vproto.PktCkptFetch {
			net.Endpoint(2).Send(pkt.From, 32, &vproto.Packet{Kind: vproto.PktCkptImage, From: 2, Incarnation: pkt.Incarnation})
		}
	})
	for _, n := range nodes {
		n.CkptEndpoint = 2
	}
	progs := []Program{
		func(n *daemon.Node) { n.Compute(50 * sim.Millisecond) },
		func(n *daemon.Node) { n.Compute(time5ms) },
	}
	d := NewDispatcher(k, nodes, progs)
	d.RestartDelay = 10 * sim.Millisecond
	d.Launch()
	d.ScheduleFault(20*sim.Millisecond, 0)
	k.Run()
	if d.Kills != 1 || d.Restarts != 1 {
		t.Fatalf("kills=%d restarts=%d, want 1/1", d.Kills, d.Restarts)
	}
	if !d.AllDone() {
		t.Fatal("run did not complete after restart")
	}
	if nodes[0].Stats().Recoveries != 1 {
		t.Fatalf("rank 0 recoveries = %d", nodes[0].Stats().Recoveries)
	}
}

const time5ms = 5 * sim.Millisecond

func TestFaultAfterCompletionIsIgnored(t *testing.T) {
	k, nodes := testWorld(t, 1)
	d := NewDispatcher(k, nodes, []Program{func(n *daemon.Node) { n.Compute(sim.Millisecond) }})
	d.Launch()
	d.ScheduleFault(10*sim.Millisecond, 0)
	k.Run()
	if d.Kills != 0 {
		t.Fatalf("fault fired after completion: kills=%d", d.Kills)
	}
}

func TestPeriodicFaultsFireWhileRunning(t *testing.T) {
	// Without checkpoints a restart re-executes from scratch, so a long
	// program under frequent faults never finishes — which is fine here:
	// the test only asserts that faults keep firing while work remains.
	k, nodes := testWorld(t, 1)
	net := nodes[0].Network()
	net.Endpoint(2).SetHandler(func(del netmodel.Delivery) {
		pkt := del.Payload.(*vproto.Packet)
		if pkt.Kind == vproto.PktCkptFetch {
			net.Endpoint(2).Send(pkt.From, 32, &vproto.Packet{Kind: vproto.PktCkptImage, From: 2, Incarnation: pkt.Incarnation})
		}
	})
	nodes[0].CkptEndpoint = 2
	d := NewDispatcher(k, nodes, []Program{func(n *daemon.Node) { n.Compute(100 * sim.Millisecond) }})
	d.RestartDelay = sim.Millisecond
	d.Launch()
	d.PeriodicFaults(20 * sim.Millisecond)
	k.RunUntil(200 * sim.Millisecond)
	if d.Kills < 3 {
		t.Fatalf("only %d faults fired in 200ms at a 20ms interval", d.Kills)
	}
}

func TestPeriodicFaultsStopWhenDone(t *testing.T) {
	k, nodes := testWorld(t, 1)
	d := NewDispatcher(k, nodes, []Program{func(n *daemon.Node) { n.Compute(10 * sim.Millisecond) }})
	d.Launch()
	d.PeriodicFaults(15 * sim.Millisecond)
	k.RunUntil(sim.Second)
	if !d.AllDone() {
		t.Fatal("program did not complete")
	}
	if d.Kills != 0 {
		t.Fatalf("faults fired after completion: %d", d.Kills)
	}
}

// installNilImageServer gives restarted incarnations a checkpoint server
// that always answers "no image" (recovery from scratch).
func installNilImageServer(nodes []*daemon.Node, endpoint int) {
	net := nodes[0].Network()
	net.Endpoint(endpoint).SetHandler(func(del netmodel.Delivery) {
		pkt := del.Payload.(*vproto.Packet)
		if pkt.Kind == vproto.PktCkptFetch {
			net.Endpoint(endpoint).Send(pkt.From, 32, &vproto.Packet{Kind: vproto.PktCkptImage, From: endpoint, Incarnation: pkt.Incarnation})
		}
	})
	for _, n := range nodes {
		n.CkptEndpoint = endpoint
	}
}

// TestKillFinishedRankIsSkipped is the regression test for the
// finished-rank re-kill bug: killing a rank whose program already
// completed used to respawn it and re-run the completed program,
// inflating Kills/Restarts and the completion stats.
func TestKillFinishedRankIsSkipped(t *testing.T) {
	k, nodes := testWorld(t, 2)
	installNilImageServer(nodes, 3)
	runs := 0
	progs := []Program{
		func(n *daemon.Node) { runs++; n.Compute(sim.Millisecond) },
		func(n *daemon.Node) { n.Compute(50 * sim.Millisecond) },
	}
	d := NewDispatcher(k, nodes, progs)
	d.RestartDelay = 5 * sim.Millisecond
	d.Launch()
	// Rank 0 finishes at 1ms; the fault lands long after, while rank 1
	// still runs (so AllDone is false and ScheduleFault does not filter).
	d.ScheduleFault(20*sim.Millisecond, 0)
	k.Run()
	if runs != 1 {
		t.Fatalf("finished rank re-ran its program %d times", runs)
	}
	if d.Kills != 0 || d.Restarts != 0 {
		t.Fatalf("kills=%d restarts=%d after killing a finished rank, want 0/0", d.Kills, d.Restarts)
	}
}

// TestKillBeforeLaunchIsDeferred is the regression test for the pre-launch
// Kill nil-panic: a fault requested before Launch (a fault plan compiled
// ahead of the run, a schedule at t=0) used to dereference a nil proc.
func TestKillBeforeLaunchIsDeferred(t *testing.T) {
	k, nodes := testWorld(t, 2)
	installNilImageServer(nodes, 3)
	progs := []Program{
		func(n *daemon.Node) { n.Compute(10 * sim.Millisecond) },
		func(n *daemon.Node) { n.Compute(10 * sim.Millisecond) },
	}
	d := NewDispatcher(k, nodes, progs)
	d.RestartDelay = 5 * sim.Millisecond
	d.Kill(0) // before Launch: must defer, not panic
	if d.Kills != 0 {
		t.Fatalf("pre-launch kill counted before launch: %d", d.Kills)
	}
	d.Launch()
	k.Run()
	if d.Kills != 1 || d.Restarts != 1 {
		t.Fatalf("kills=%d restarts=%d, want 1/1", d.Kills, d.Restarts)
	}
	if !d.AllDone() {
		t.Fatal("run did not complete after the deferred kill")
	}
	if nodes[0].Stats().Recoveries != 1 {
		t.Fatalf("rank 0 recoveries = %d, want 1", nodes[0].Stats().Recoveries)
	}
}

// TestPeriodicFaultsSkipFinishedRanks: the cycling victim selection must
// pass over ranks whose program completed instead of wasting the tick.
func TestPeriodicFaultsSkipFinishedRanks(t *testing.T) {
	k, nodes := testWorld(t, 2)
	installNilImageServer(nodes, 3)
	runs0 := 0
	progs := []Program{
		func(n *daemon.Node) { runs0++; n.Compute(sim.Millisecond) },
		func(n *daemon.Node) { n.Compute(100 * sim.Millisecond) },
	}
	d := NewDispatcher(k, nodes, progs)
	d.RestartDelay = sim.Millisecond
	d.Launch()
	// Every tick would target rank 0 first; rank 0 is finished after 1ms,
	// so every fault must cycle to rank 1.
	d.PeriodicFaults(20 * sim.Millisecond)
	k.RunUntil(200 * sim.Millisecond)
	if runs0 != 1 {
		t.Fatalf("finished rank 0 re-ran %d times", runs0)
	}
	if d.Kills < 3 {
		t.Fatalf("faults stopped firing: kills=%d", d.Kills)
	}
}

// TestKillWhileRestartingExtendsWindow: a second kill landing inside the
// restart window must cancel the superseded respawn (gen guard) and
// schedule a fresh one — exactly one incarnation comes back.
func TestKillWhileRestartingExtendsWindow(t *testing.T) {
	k, nodes := testWorld(t, 2)
	installNilImageServer(nodes, 3)
	progs := []Program{
		func(n *daemon.Node) { n.Compute(100 * sim.Millisecond) },
		func(n *daemon.Node) { n.Compute(100 * sim.Millisecond) },
	}
	d := NewDispatcher(k, nodes, progs)
	d.RestartDelay = 10 * sim.Millisecond
	var restarts []sim.Time
	d.Observe(func(ev obs.Event) {
		if ev.Kind == obs.KindRestart && ev.Rank == 0 {
			restarts = append(restarts, ev.T)
		}
	})
	d.Launch()
	d.ScheduleFault(20*sim.Millisecond, 0)
	d.ScheduleFault(25*sim.Millisecond, 0) // inside the first restart window
	k.Run()
	if d.Kills != 2 {
		t.Fatalf("kills = %d, want 2", d.Kills)
	}
	if d.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1 (first respawn superseded)", d.Restarts)
	}
	if len(restarts) != 1 || restarts[0] != 35*sim.Millisecond {
		t.Fatalf("restart events %v, want exactly one at 35ms", restarts)
	}
	if !d.AllDone() {
		t.Fatal("run did not complete")
	}
}

// TestObserverEventStream checks the lifecycle sequence one fault
// produces: kill → restart → recovered → finished, with liveness queries
// agreeing at every stage.
func TestObserverEventStream(t *testing.T) {
	k, nodes := testWorld(t, 2)
	installNilImageServer(nodes, 3)
	progs := []Program{
		func(n *daemon.Node) { n.Compute(50 * sim.Millisecond) },
		func(n *daemon.Node) { n.Compute(5 * sim.Millisecond) },
	}
	d := NewDispatcher(k, nodes, progs)
	d.RestartDelay = 10 * sim.Millisecond
	var kinds []obs.Kind
	d.Observe(func(ev obs.Event) {
		if ev.Rank != 0 {
			return
		}
		kinds = append(kinds, ev.Kind)
		// Dead from the kill until the respawn; alive from the restart on,
		// through the recovery window the stream brackets with recovered.
		if alive := ev.Kind != obs.KindKill; d.Alive(0) != alive {
			t.Errorf("at %v: %v but Alive=%v", ev.T, ev.Kind, d.Alive(0))
		}
	})
	if d.Alive(0) {
		t.Fatal("rank alive before Launch")
	}
	d.Launch()
	d.ScheduleFault(20*sim.Millisecond, 0)
	k.Run()
	want := []obs.Kind{obs.KindKill, obs.KindRestart, obs.KindRecovered, obs.KindFinished}
	if len(kinds) != len(want) {
		t.Fatalf("event stream %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event stream %v, want %v", kinds, want)
		}
	}
}

// TestCoordinatedRollbackRevokesCompletion: rollback-all resurrects ranks
// whose program already finished, so completion-based guards (RankDone,
// fault targeting) must see them as running from the instant of the
// rollback — not only once the respawned process binds.
func TestCoordinatedRollbackRevokesCompletion(t *testing.T) {
	k, nodes := testWorld(t, 2)
	installNilImageServer(nodes, 3)
	progs := []Program{
		func(n *daemon.Node) { n.Compute(50 * sim.Millisecond) },
		func(n *daemon.Node) { n.Compute(5 * sim.Millisecond) },
	}
	d := NewDispatcher(k, nodes, progs)
	d.Coordinated = true
	d.RestartDelay = 10 * sim.Millisecond
	d.Launch()
	d.ScheduleFault(20*sim.Millisecond, 0) // rank 1 finished at 5ms
	probed := false
	k.At(25*sim.Millisecond, func() { // inside the rollback restart window
		probed = true
		if d.RankDone(1) {
			t.Error("finished rank still reports done inside the rollback-all restart window")
		}
	})
	k.Run()
	if !probed {
		t.Fatal("probe never ran")
	}
	if !d.AllDone() {
		t.Fatal("run did not complete after rollback")
	}
	if d.Restarts != 2 {
		t.Fatalf("restarts = %d, want 2 (both ranks rolled back)", d.Restarts)
	}
}

func TestMismatchedProgramsPanic(t *testing.T) {
	k, nodes := testWorld(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewDispatcher(k, nodes, make([]Program, 1))
}
