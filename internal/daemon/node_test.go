package daemon

import (
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
	if b.LastEvent() != (event.EventID{Creator: 1, Clock: 3}) {
		t.Errorf("lastEvent = %v", b.LastEvent())
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
	if b.Lamport() != 3 {
		t.Fatalf("b.Lamport = %d, want 3", b.Lamport())
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
	if a.Step() != 1 {
		t.Fatalf("step = %d, want 1", a.Step())
	}
}

func TestNodeDuplicateSuppression(t *testing.T) {
	k, a, b := twoNodes(t)
	k.Spawn("a", func(p *sim.Proc) {
		a.Bind(p)
		a.Send(1, 0, 10)
		// Re-emit the same logged message (replay path).
		m := vproto.Message{Src: 0, Dst: 1, Tag: 0, Bytes: 10, SendSeq: 1, Replay: true}
		a.transmit(&m)
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

func TestReplayDivergencePanics(t *testing.T) {
	k, a, b := twoNodes(t)
	defer func() {
		if recover() == nil {
			t.Fatal("replay divergence did not panic")
		}
	}()
	k.Spawn("a", func(p *sim.Proc) {
		a.Bind(p)
		a.Send(1, 0, 10)
	})
	k.Spawn("b", func(p *sim.Proc) {
		b.Bind(p)
		// Install a replay expectation that cannot match message (0, seq 1).
		b.replayDets = []event.Determinant{{
			ID: event.EventID{Creator: 1, Clock: 1}, Sender: 0, SendSeq: 99,
		}}
		m := &vproto.Message{Src: 0, SendSeq: 1}
		b.CreateDeterminant(m)
	})
	k.Run()
}
