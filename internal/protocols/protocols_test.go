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

func TestVdummyIsInert(t *testing.T) {
	k := sim.NewKernel(1)
	net := netmodel.New(k, netmodel.FastEthernet(), 2)
	a := newNode(k, net, 0, 2, NewVdummy())
	b := newNode(k, net, 1, 2, NewVdummy())
	k.Spawn("a", func(p *sim.Proc) { a.Bind(p); a.Send(1, 0, 100) })
	k.Spawn("b", func(p *sim.Proc) { b.Bind(p); b.Recv(0, 0) })
	k.Run()
	if b.Clock() != 0 {
		t.Error("vdummy created a determinant")
	}
	if a.Stats().PiggybackBytes != 0 || a.Log.Bytes() != 0 {
		t.Error("vdummy produced protocol overhead")
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
