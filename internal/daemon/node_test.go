package daemon

import (
	"slices"
	"testing"

	"mpichv/internal/causal/sparsevec"
	"mpichv/internal/event"
	"mpichv/internal/netmodel"
	"mpichv/internal/sim"
	"mpichv/internal/vproto"
)

// nullProto is a minimal protocol that creates determinants (so clock and
// replay machinery are exercised) but keeps nothing.
type nullProto struct{ dets []event.Determinant }

func (*nullProto) PreSend(*Node, *vproto.Message) sim.Time { return 0 }
func (p *nullProto) OnDeliver(n *Node, m *vproto.Message) {
	d, _ := n.CreateDeterminant(m)
	p.dets = append(p.dets, d)
}
func (*nullProto) OnControl(*Node, *vproto.Packet)                      {}
func (*nullProto) TakeSnapshot(n *Node)                                 { n.TakeCheckpoint() }
func (*nullProto) Snapshot(*Node, *vproto.CheckpointImage)              {}
func (*nullProto) Restore(*Node, *vproto.CheckpointImage)               {}
func (*nullProto) Integrate(*Node, []event.Determinant, *sparsevec.Vec) {}
func (*nullProto) HeldFor(event.Rank) []event.Determinant               { return nil }

func twoNodes(t *testing.T) (*sim.Kernel, *Node, *Node) {
	t.Helper()
	k := sim.NewKernel(1)
	net := netmodel.New(k, netmodel.FastEthernet(), 4)
	a := NewNode(k, net, 0, 2, Vdaemon(), &nullProto{})
	b := NewNode(k, net, 1, 2, Vdaemon(), &nullProto{})
	return k, a, b
}

// nullNodes builds np nullProto nodes on one np-endpoint network, wired to
// the deployment's loss check as cluster.New wires its nodes.
func nullNodes(np int) (*sim.Kernel, *netmodel.Network, []*Node) {
	k := sim.NewKernel(1)
	net := netmodel.New(k, netmodel.FastEthernet(), np)
	nodes := make([]*Node, np)
	lossCheck := func(creator event.Rank, from, to uint64) []bool {
		return Witnessed(nodes, net, creator, from, to)
	}
	for r := range nodes {
		nodes[r] = NewNode(k, net, event.Rank(r), np, Vdaemon(), &nullProto{})
		nodes[r].LossCheck = lossCheck
	}
	return k, net, nodes
}

func TestNodeSendRecv(t *testing.T) {
	k, a, b := twoNodes(t)
	var got *vproto.Message
	k.Spawn("a", func(p *sim.Proc) {
		a.Bind(p)
		a.Send(1, 7, 1000)
	})
	k.Spawn("b", func(p *sim.Proc) {
		b.Bind(p)
		got = b.Recv(0, 7)
	})
	k.Run()
	if got == nil || got.Src != 0 || got.Bytes != 1000 || got.SendSeq != 1 {
		t.Fatalf("received %+v", got)
	}
	if a.Stats().AppMsgsSent != 1 || a.Stats().AppBytesSent != 1000 {
		t.Error("sender stats wrong")
	}
}

func TestNodeTagAndSourceMatching(t *testing.T) {
	k, a, b := twoNodes(t)
	var order []int
	k.Spawn("a", func(p *sim.Proc) {
		a.Bind(p)
		a.Send(1, 5, 10)
		a.Send(1, 6, 10)
	})
	k.Spawn("b", func(p *sim.Proc) {
		b.Bind(p)
		// Ask for tag 6 first: matching must be by tag, not arrival order.
		m := b.Recv(0, 6)
		order = append(order, m.Tag)
		m = b.Recv(AnySource, 5)
		order = append(order, m.Tag)
	})
	k.Run()
	if len(order) != 2 || order[0] != 6 || order[1] != 5 {
		t.Fatalf("order = %v, want [6 5]", order)
	}
}

func TestNodeDeterminantCounters(t *testing.T) {
	k, a, b := twoNodes(t)
	proto := b.Proto.(*nullProto)
	k.Spawn("a", func(p *sim.Proc) {
		a.Bind(p)
		for i := 0; i < 3; i++ {
			a.Send(1, 0, 10)
		}
	})
	k.Spawn("b", func(p *sim.Proc) {
		b.Bind(p)
		for i := 0; i < 3; i++ {
			b.Recv(0, 0)
		}
	})
	k.Run()
	if len(proto.dets) != 3 {
		t.Fatalf("%d determinants created, want 3", len(proto.dets))
	}
	for i, d := range proto.dets {
		if d.ID.Creator != 1 || d.ID.Clock != uint64(i+1) || d.SendSeq != uint64(i+1) {
			t.Errorf("determinant %d = %v", i, d)
		}
	}
	if b.Clock() != 3 {
		t.Errorf("clock = %d, want 3", b.Clock())
	}
	if b.lastEvent != (event.EventID{Creator: 1, Clock: 3}) {
		t.Errorf("lastEvent = %v", b.lastEvent)
	}
}

func TestNodeLamportPropagation(t *testing.T) {
	k, a, b := twoNodes(t)
	k.Spawn("a", func(p *sim.Proc) {
		a.Bind(p)
		a.Send(1, 0, 10)
		a.Recv(1, 0)
		a.Send(1, 0, 10)
	})
	k.Spawn("b", func(p *sim.Proc) {
		b.Bind(p)
		b.Recv(0, 0) // lamport -> 1
		b.Send(0, 0, 10)
		b.Recv(0, 0)
	})
	k.Run()
	// a's reception of b's message: b had lamport 1 -> a's event lamport 2;
	// b's second reception: a's lamport 2 -> lamport 3.
	if b.lamport != 3 {
		t.Fatalf("b.Lamport = %d, want 3", b.lamport)
	}
}

func TestNodeComputeAdvancesClock(t *testing.T) {
	k, a, _ := twoNodes(t)
	var at sim.Time
	k.Spawn("a", func(p *sim.Proc) {
		a.Bind(p)
		a.Compute(5 * sim.Millisecond)
		at = a.Now()
	})
	k.Run()
	if at != 5*sim.Millisecond {
		t.Fatalf("compute ended at %v", at)
	}
	if a.step != 1 {
		t.Fatalf("step = %d, want 1", a.step)
	}
}

func TestNodeDuplicateSuppression(t *testing.T) {
	k, a, b := twoNodes(t)
	k.Spawn("a", func(p *sim.Proc) {
		a.Bind(p)
		a.Send(1, 0, 10)
		// Re-send the same message from the sender log (replay path).
		a.Log.Append(vproto.Message{Src: 0, Dst: 1, Tag: 0, Bytes: 10, SendSeq: 1})
		a.replayLogged(1, 0)
	})
	got := 0
	k.Spawn("b", func(p *sim.Proc) {
		b.Bind(p)
		b.Recv(0, 0)
		got++
		// Drain any duplicate: it must have been dropped at acceptance.
		b.drain()
		if len(b.recvQ) != 0 {
			t.Error("duplicate message queued")
		}
	})
	k.Run()
	if got != 1 {
		t.Fatalf("consumed %d, want 1", got)
	}
}

func TestBuildImageCapturesRecvQueue(t *testing.T) {
	k, a, b := twoNodes(t)
	k.Spawn("a", func(p *sim.Proc) {
		a.Bind(p)
		a.Send(1, 0, 10)
		a.Send(1, 0, 10)
	})
	var im *vproto.CheckpointImage
	k.Spawn("b", func(p *sim.Proc) {
		b.Bind(p)
		b.Recv(0, 0) // consume one, leave one queued (after both arrive)
		b.drain()
		im = b.BuildImage()
	})
	k.Run()
	if im == nil {
		t.Fatal("no image")
	}
	if len(im.ChannelMsgs) != 1 || im.ChannelMsgs[0].SendSeq != 2 {
		t.Fatalf("ChannelMsgs = %+v, want the unconsumed message", im.ChannelMsgs)
	}
	if im.Clock != 1 || im.LastSeqSeen.Get(0) != 2 {
		t.Fatalf("image counters: clock=%d floor=%d", im.Clock, im.LastSeqSeen.Get(0))
	}
}

// TestReplayOrdersRecvBySenderSequence: during replay, Recv consumes the
// messages in the order of the collected determinants, not in arrival
// order, and hands each delivery the determinant that names it.
func TestReplayOrdersRecvBySenderSequence(t *testing.T) {
	k, _, nodes := nullNodes(3)
	a, b, c := nodes[0], nodes[1], nodes[2]
	// The original run consumed rank 2's message first; here it arrives
	// second, since rank 2 computes before sending.
	replay := []event.Determinant{
		{ID: event.EventID{Creator: 1, Clock: 1}, Sender: 2, SendSeq: 1, Lamport: 4},
		{ID: event.EventID{Creator: 1, Clock: 2}, Sender: 0, SendSeq: 1, Lamport: 5},
	}
	b.replayDets = slices.Clone(replay)
	b.phase = phaseReplaying
	k.Spawn("a", func(p *sim.Proc) {
		a.Bind(p)
		a.Send(1, 0, 10)
	})
	k.Spawn("c", func(p *sim.Proc) {
		c.Bind(p)
		c.Compute(sim.Millisecond)
		c.Send(1, 0, 10)
	})
	var order []event.Rank
	k.Spawn("b", func(p *sim.Proc) {
		b.Bind(p)
		for range replay {
			order = append(order, b.Recv(AnySource, 0).Src)
		}
	})
	k.Run()
	if !slices.Equal(order, []event.Rank{2, 0}) {
		t.Fatalf("consumed senders %v, want [2 0] (replay order, not arrival order)", order)
	}
	if got := b.Proto.(*nullProto).dets; !slices.Equal(got, replay) {
		t.Fatalf("determinants %v, want the replay set %v", got, replay)
	}
	if b.Replaying() || b.phase != phaseUp || b.Clock() != 2 || b.lamport != 5 {
		t.Fatalf("after replay: replaying=%v phase=%d clock=%d lamport=%d, want false, up, 2, 5",
			b.Replaying(), b.phase, b.Clock(), b.lamport)
	}
}
