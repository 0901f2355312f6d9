package protocols

import (
	"testing"

	"mpichv/internal/causal/sparsevec"
	"mpichv/internal/daemon"
	"mpichv/internal/event"
	"mpichv/internal/netmodel"
	"mpichv/internal/sim"
	"mpichv/internal/vproto"
)

func newNode(k *sim.Kernel, net *netmodel.Network, rank event.Rank, np int, proto daemon.Protocol) *daemon.Node {
	return daemon.NewNode(k, net, rank, np, daemon.Vdaemon(), proto)
}

// TestVdummyIsInert: Vdummy adds nothing to a message, and a checkpoint
// request, which the daemon takes for every stack, is honoured at b's
// Recv by a snapshot that stores nothing.
func TestVdummyIsInert(t *testing.T) {
	const server = 2
	k := sim.NewKernel(1)
	net := netmodel.New(k, netmodel.FastEthernet(), 3)
	a := newNode(k, net, 0, 2, NewVdummy())
	b := newNode(k, net, 1, 2, NewVdummy())
	a.CkptEndpoint, b.CkptEndpoint = server, server
	var toServer int
	net.Endpoint(server).SetHandler(func(netmodel.Delivery) { toServer++ })
	k.At(0, func() {
		net.Endpoint(server).Send(1, 16, &vproto.Packet{Kind: vproto.PktCkptRequest, From: server, Epoch: 1})
	})
	k.Spawn("a", func(p *sim.Proc) { a.Bind(p); a.Send(1, 0, 100) })
	k.Spawn("b", func(p *sim.Proc) { b.Bind(p); b.Recv(0, 0) })
	k.Run()
	if b.Clock() != 0 {
		t.Error("vdummy created a determinant")
	}
	if a.Stats().PiggybackBytes != 0 || a.Log.Bytes() != 0 {
		t.Error("vdummy produced protocol overhead")
	}
	if b.CheckpointEpoch() != 1 {
		t.Fatalf("b's daemon holds checkpoint epoch %d, want the request's 1", b.CheckpointEpoch())
	}
	if toServer != 0 || b.Stats().Checkpoints != 0 || b.Stats().ControlMsgs != 0 {
		t.Errorf("vdummy answered a checkpoint request: %d packets to the server, %d checkpoints, %d control messages",
			toServer, b.Stats().Checkpoints, b.Stats().ControlMsgs)
	}
}

func TestVcausalAttachesAndLogs(t *testing.T) {
	k := sim.NewKernel(1)
	net := netmodel.New(k, netmodel.FastEthernet(), 3) // 2 nodes + EL slot
	a := newNode(k, net, 0, 2, NewVcausal("vcausal", 0, 2))
	b := newNode(k, net, 1, 2, NewVcausal("vcausal", 1, 2))
	k.Spawn("a", func(p *sim.Proc) {
		a.Bind(p)
		a.Send(1, 0, 100)
		a.Recv(1, 0) // b's reply piggybacks b's reception event
	})
	k.Spawn("b", func(p *sim.Proc) {
		b.Bind(p)
		b.Recv(0, 0)
		b.Send(0, 0, 100)
	})
	k.Run()
	if a.Log.Bytes() != 100 || b.Log.Bytes() != 100 {
		t.Error("sender-based payload logging missing")
	}
	if b.Stats().PiggybackEvents != 1 {
		t.Errorf("b piggybacked %d events, want 1", b.Stats().PiggybackEvents)
	}
	va := a.Proto.(*Vcausal)
	if va.Held() != 2 { // own reception event + b's event
		t.Errorf("a holds %d determinants, want 2", va.Held())
	}
	if got := va.HeldFor(1); len(got) != 1 {
		t.Errorf("a.HeldFor(b) = %v", got)
	}
}

func TestVcausalShipsToELAndGCs(t *testing.T) {
	k := sim.NewKernel(1)
	net := netmodel.New(k, netmodel.FastEthernet(), 3)
	a := newNode(k, net, 0, 2, NewVcausal("manetho", 0, 2))
	b := newNode(k, net, 1, 2, NewVcausal("manetho", 1, 2))
	a.ELEndpoint, b.ELEndpoint = 2, 2

	// Fake EL: immediately ack everything with a full stable vector.
	var logged int
	stable := make([]uint64, 2)
	net.Endpoint(2).SetHandler(func(d netmodel.Delivery) {
		pkt := d.Payload.(*vproto.Packet)
		if pkt.Kind != vproto.PktEventLog {
			return
		}
		logged += len(pkt.Determinants)
		for _, det := range pkt.Determinants {
			if det.ID.Clock > stable[det.ID.Creator] {
				stable[det.ID.Creator] = det.ID.Clock
			}
		}
		ack := sparsevec.New(2)
		for c, f := range stable {
			ack.SetMax(c, f)
		}
		net.Endpoint(2).Send(pkt.From, 24, &vproto.Packet{Kind: vproto.PktEventAck, From: 2, StableVec: ack})
	})

	k.Spawn("a", func(p *sim.Proc) {
		a.Bind(p)
		for i := 0; i < 5; i++ {
			a.Send(1, 0, 10)
			a.Recv(1, 0)
		}
		// Let the final ack land.
		p.Sleep(sim.Millisecond)
		a.Recv(1, 99) // never matched; used only to drain? no — skip
	})
	k.Spawn("b", func(p *sim.Proc) {
		b.Bind(p)
		for i := 0; i < 5; i++ {
			b.Recv(0, 0)
			b.Send(0, 0, 10)
		}
		p.Sleep(sim.Millisecond)
		b.Send(0, 99, 1) // unblock a's final recv
	})
	k.Run()
	if logged != 11 { // 5 per side plus the final unblocking message
		t.Fatalf("EL received %d events, want 11", logged)
	}
	vb := b.Proto.(*Vcausal)
	if vb.Held() > 2 {
		t.Errorf("b still holds %d determinants after acks; GC failed", vb.Held())
	}
	if b.Stats().EventsLogged != 5 {
		t.Errorf("b logged %d events, want 5", b.Stats().EventsLogged)
	}
}

func TestVcausalSnapshotRestore(t *testing.T) {
	k := sim.NewKernel(1)
	net := netmodel.New(k, netmodel.FastEthernet(), 2)
	proto := NewVcausal("logon", 0, 2)
	n := newNode(k, net, 0, 2, proto)
	k.Spawn("n", func(p *sim.Proc) {
		n.Bind(p)
		proto.Merge(n, []event.Determinant{
			{ID: event.EventID{Creator: 1, Clock: 1}, Sender: 0, SendSeq: 1, Lamport: 1},
			{ID: event.EventID{Creator: 1, Clock: 2}, Sender: 0, SendSeq: 2, Lamport: 2},
		})
		im := &vproto.CheckpointImage{Rank: 0}
		proto.Snapshot(n, im)
		if len(im.Determinants) != 2 {
			t.Errorf("snapshot carries %d determinants", len(im.Determinants))
		}
		proto.Restore(n, im)
		if proto.Held() != 2 {
			t.Errorf("restore recovered %d determinants", proto.Held())
		}
	})
	k.Run()
}

// Merge is a test helper exposing the reducer merge through the protocol.
func (v *Vcausal) Merge(n *daemon.Node, ds []event.Determinant) {
	v.reducer.Merge(1, ds)
}

func TestPessimisticRequiresEL(t *testing.T) {
	k := sim.NewKernel(1)
	net := netmodel.New(k, netmodel.FastEthernet(), 2)
	a := newNode(k, net, 0, 2, NewPessimistic())
	defer func() {
		if recover() == nil {
			t.Fatal("pessimistic send without EL did not panic")
		}
	}()
	k.Spawn("a", func(p *sim.Proc) {
		a.Bind(p)
		a.Send(1, 0, 10)
	})
	k.Run()
}

func TestPessimisticBlocksUntilAck(t *testing.T) {
	k := sim.NewKernel(1)
	net := netmodel.New(k, netmodel.FastEthernet(), 3)
	a := newNode(k, net, 0, 2, NewPessimistic())
	b := newNode(k, net, 1, 2, NewPessimistic())
	a.ELEndpoint, b.ELEndpoint = 2, 2

	const ackDelay = 5 * sim.Millisecond
	net.Endpoint(2).SetHandler(func(d netmodel.Delivery) {
		pkt := d.Payload.(*vproto.Packet)
		if pkt.Kind != vproto.PktEventLog {
			return
		}
		vec := sparsevec.New(2)
		for _, det := range pkt.Determinants {
			vec.SetMax(int(det.ID.Creator), det.ID.Clock)
		}
		k.After(ackDelay, func() {
			net.Endpoint(2).Send(pkt.From, 24, &vproto.Packet{Kind: vproto.PktEventAck, From: 2, StableVec: vec})
		})
	})

	var bSecondSend sim.Time
	k.Spawn("a", func(p *sim.Proc) {
		a.Bind(p)
		a.Send(1, 0, 10)
		a.Recv(1, 0)
	})
	k.Spawn("b", func(p *sim.Proc) {
		b.Bind(p)
		b.Recv(0, 0) // creates b's event, shipped to EL
		b.Send(0, 0, 10)
		bSecondSend = b.Now()
	})
	k.Run()
	if bSecondSend < ackDelay {
		t.Fatalf("pessimistic send completed at %v, before the EL ack could arrive (%v)",
			bSecondSend, ackDelay)
	}
}

// TestCoordinatedCut drives one rank's Chandy-Lamport cut through the
// protocol hooks and the daemon: a marker that arrives before the local
// snapshot leaves its sender's channel out of the recording, a message the
// daemon accepts from a channel still recording joins the image's channel
// state, a stale marker is ignored, and a snapshot whose markers all came
// early ships at once.
func TestCoordinatedCut(t *testing.T) {
	const np, server = 3, 3
	k := sim.NewKernel(1)
	net := netmodel.New(k, netmodel.FastEthernet(), np+1)
	proto := NewCoordinated()
	n := newNode(k, net, 0, np, proto)
	n.CkptEndpoint = server
	var stored []*vproto.CheckpointImage
	net.Endpoint(server).SetHandler(func(d netmodel.Delivery) {
		if pkt := d.Payload.(*vproto.Packet); pkt.Kind == vproto.PktCkptStore {
			stored = append(stored, pkt.Image)
		}
	})
	marker := func(from event.Rank, epoch int) {
		proto.OnControl(n, &vproto.Packet{Kind: vproto.PktMarker, Rank: from, Epoch: epoch})
	}
	ship := func() int { k.Run(); return len(stored) }

	// Wave 1: rank 1's marker beats the local snapshot.
	marker(1, 1)
	if n.CheckpointEpoch() != 1 {
		t.Fatalf("an early marker requested epoch %d, want 1", n.CheckpointEpoch())
	}
	proto.TakeSnapshot(n)
	if n.Recording[1] || !n.Recording[2] || len(n.Recording) != 1 {
		t.Fatalf("recording %v after rank 1's early marker, want only rank 2", n.Recording)
	}
	// One message on each channel; the daemon accepts both and records
	// only the one from rank 2, whose channel is still recording.
	for _, m := range []*vproto.Message{
		{Src: 1, Dst: 0, Tag: 7, Bytes: 10, SendSeq: 1},
		{Src: 2, Dst: 0, Tag: 8, Bytes: 20, SendSeq: 1},
	} {
		net.Endpoint(int(m.Src)).Send(0, m.Bytes, &vproto.Packet{Kind: vproto.PktApp, From: int(m.Src), App: m})
	}
	k.Spawn("n", func(p *sim.Proc) { n.Bind(p); n.WaitPacket(); n.WaitPacket() })
	marker(1, 1) // a second marker on a closed channel changes nothing
	if ship() != 0 {
		t.Fatal("the snapshot shipped before rank 2's marker")
	}
	marker(2, 1)
	if ship() != 1 {
		t.Fatalf("%d images stored after the last marker, want 1", len(stored))
	}
	im := stored[0]
	if im.Epoch != 1 || len(im.ChannelMsgs) != 1 || im.ChannelMsgs[0].Src != 2 || im.ChannelMsgs[0].Tag != 8 {
		t.Fatalf("image epoch %d channel state %+v, want epoch 1 with rank 2's tag-8 message only", im.Epoch, im.ChannelMsgs)
	}
	if n.Recording != nil || n.RecordedMsgs != nil {
		t.Errorf("a shipped cut left recording %v and %d recorded messages", n.Recording, len(n.RecordedMsgs))
	}

	// A stale marker from the shipped wave requests nothing.
	n.RequestCheckpoint(0)
	marker(2, 1)
	if n.CheckpointEpoch() != 0 || ship() != 1 {
		t.Errorf("a stale marker requested epoch %d and left %d images, want 0 and 1", n.CheckpointEpoch(), len(stored))
	}

	// Wave 2: both markers come before the snapshot, which ships at once.
	marker(1, 2)
	marker(2, 2)
	proto.TakeSnapshot(n)
	if ship() != 2 || stored[1].Epoch != 2 {
		t.Fatalf("all-early wave: %d images stored, want the epoch-2 image shipped at once", len(stored))
	}
	if got := n.Stats().Checkpoints; got != 2 {
		t.Errorf("Checkpoints = %d, want 2", got)
	}
}
