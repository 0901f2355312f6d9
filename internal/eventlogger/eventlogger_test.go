package eventlogger

import (
	"slices"
	"testing"

	"mpichv/internal/event"
	"mpichv/internal/netmodel"
	"mpichv/internal/sim"
	"mpichv/internal/vproto"
)

func setup(t *testing.T) (*sim.Kernel, *netmodel.Network, *Server) {
	t.Helper()
	k := sim.NewKernel(1)
	net := netmodel.New(k, netmodel.FastEthernet(), 4)
	s := New(k, net, 3, 3, DefaultConfig())
	return k, net, s
}

func logPacket(from int, ds ...event.Determinant) *vproto.Packet {
	return &vproto.Packet{Kind: vproto.PktEventLog, From: from, Determinants: ds}
}

func det(creator event.Rank, clock uint64) event.Determinant {
	return event.Determinant{ID: event.EventID{Creator: creator, Clock: clock}, Sender: 0, SendSeq: clock}
}

func TestStoreAndAck(t *testing.T) {
	k, net, s := setup(t)
	var acks []*vproto.Packet
	net.Endpoint(0).SetHandler(func(d netmodel.Delivery) {
		acks = append(acks, d.Payload.(*vproto.Packet))
	})
	k.At(0, func() {
		net.Endpoint(0).Send(3, 40, logPacket(0, det(0, 1)))
		net.Endpoint(0).Send(3, 40, logPacket(0, det(0, 2)))
	})
	k.Run()
	if len(acks) != 2 {
		t.Fatalf("%d acks, want 2", len(acks))
	}
	last := acks[1]
	if last.Kind != vproto.PktEventAck {
		t.Fatalf("ack kind = %v", last.Kind)
	}
	if last.StableVec.Get(0) != 2 || last.StableVec.Get(1) != 0 {
		t.Fatalf("stable vector = %v", last.StableVec)
	}
	if s.EventsStored != 2 {
		t.Fatalf("EventsStored = %d", s.EventsStored)
	}
}

func TestDuplicatesIgnored(t *testing.T) {
	k, net, s := setup(t)
	net.Endpoint(0).SetHandler(func(netmodel.Delivery) {})
	k.At(0, func() {
		net.Endpoint(0).Send(3, 40, logPacket(0, det(1, 1)))
		net.Endpoint(0).Send(3, 40, logPacket(0, det(1, 1)))
	})
	k.Run()
	if s.EventsStored != 1 {
		t.Fatalf("EventsStored = %d, want 1 (duplicate dropped)", s.EventsStored)
	}
	if s.StoredFor(1) != 1 {
		t.Fatalf("StoredFor(1) = %d", s.StoredFor(1))
	}
}

func TestGapPanics(t *testing.T) {
	k, net, _ := setup(t)
	net.Endpoint(0).SetHandler(func(netmodel.Delivery) {})
	defer func() {
		if recover() == nil {
			t.Fatal("gap in event stream did not panic")
		}
	}()
	k.At(0, func() {
		net.Endpoint(0).Send(3, 40, logPacket(0, det(0, 2))) // clock 1 missing
	})
	k.Run()
}

func TestQueryReturnsHistoryAndStableVector(t *testing.T) {
	k, net, s := setup(t)
	var resp *vproto.Packet
	net.Endpoint(1).SetHandler(func(d netmodel.Delivery) {
		pkt := d.Payload.(*vproto.Packet)
		if pkt.Kind == vproto.PktEventQueryResp {
			resp = pkt
		}
	})
	net.Endpoint(0).SetHandler(func(netmodel.Delivery) {})
	k.At(0, func() {
		net.Endpoint(0).Send(3, 40, logPacket(0, det(2, 1), det(2, 2), det(2, 3)))
	})
	k.At(sim.Millisecond, func() {
		net.Endpoint(1).Send(3, 32, &vproto.Packet{Kind: vproto.PktEventQuery, From: 1, Creator: 2})
	})
	k.Run()
	if resp == nil {
		t.Fatal("no query response")
	}
	if len(resp.Determinants) != 3 {
		t.Fatalf("query returned %d determinants, want 3", len(resp.Determinants))
	}
	if resp.StableVec.Get(2) != 3 {
		t.Fatalf("stable vector = %v", resp.StableVec)
	}
	if s.QueriesServed != 1 {
		t.Fatalf("QueriesServed = %d", s.QueriesServed)
	}
}

// TestQueryRoundTripsStore: determinants stored in the held form come back
// from a query equal to what was shipped, every field included, in a slice
// the recovering node owns: writing to it leaves the store, and a second
// query, untouched.
func TestQueryRoundTripsStore(t *testing.T) {
	k, net, s := setup(t)
	var resps []*vproto.Packet
	net.Endpoint(1).SetHandler(func(d netmodel.Delivery) {
		if pkt := d.Payload.(*vproto.Packet); pkt.Kind == vproto.PktEventQueryResp {
			resps = append(resps, pkt)
		}
	})
	net.Endpoint(0).SetHandler(func(netmodel.Delivery) {})
	want := make([]event.Determinant, 5)
	for i := range want {
		c := uint64(i + 1)
		want[i] = event.Determinant{ID: event.EventID{Creator: 2, Clock: c}, Sender: event.Rank(i % 3), SendSeq: 7 * c,
			Parent: event.EventID{Creator: event.Rank((i + 1) % 3), Clock: c / 2}, Lamport: 1<<31 + c}
	}
	k.At(0, func() { net.Endpoint(0).Send(3, 40, logPacket(0, want[:2]...)) })
	k.At(sim.Millisecond, func() { net.Endpoint(0).Send(3, 40, logPacket(0, want[2:]...)) })
	for _, at := range []sim.Time{2 * sim.Millisecond, 3 * sim.Millisecond} {
		k.At(at, func() {
			net.Endpoint(1).Send(3, 32, &vproto.Packet{Kind: vproto.PktEventQuery, From: 1, Creator: 2})
		})
	}
	k.Run()
	if len(resps) != 2 {
		t.Fatalf("%d query responses, want 2", len(resps))
	}
	first := resps[0].Determinants
	if !slices.Equal(first, want) {
		t.Fatalf("query returned %v, want %v", first, want)
	}
	for i := range first {
		first[i] = event.Determinant{}
	}
	if !slices.Equal(resps[1].Determinants, want) {
		t.Fatalf("writing to one response changed the next: %v", resps[1].Determinants)
	}
	if got := s.StoredFor(2); got != len(want) {
		t.Fatalf("StoredFor(2) = %d, want %d", got, len(want))
	}
}

func TestServiceTimeSerializesRequests(t *testing.T) {
	// A burst of log packets must be served one at a time: the gap between
	// consecutive acks is at least the per-packet service time (this is the
	// saturation mechanism of the paper's LU.16 observation).
	k, net, _ := setup(t)
	cfg := DefaultConfig()
	var ackTimes []sim.Time
	net.Endpoint(0).SetHandler(func(netmodel.Delivery) {
		ackTimes = append(ackTimes, k.Now())
	})
	k.At(0, func() {
		for i := 1; i <= 10; i++ {
			net.Endpoint(0).Send(3, 40, logPacket(0, det(0, uint64(i))))
		}
	})
	k.Run()
	if len(ackTimes) != 10 {
		t.Fatalf("%d acks", len(ackTimes))
	}
	minGap := cfg.PerPacket + PerEvent
	for i := 1; i < len(ackTimes); i++ {
		if gap := ackTimes[i] - ackTimes[i-1]; gap < minGap {
			t.Fatalf("ack gap %v < service time %v", gap, minGap)
		}
	}
}

func TestMaxQueueTracksBacklog(t *testing.T) {
	// Three nodes logging concurrently outpace the single server: the
	// backlog must become visible (the paper's LU.16 saturation). 90
	// requests reach it 9.44 µs apart on its link and take 38 µs each:
	// 22 are done by the last arrival, 67 wait behind the one in service.
	k, net, s := setup(t)
	for i := 0; i < 3; i++ {
		net.Endpoint(i).SetHandler(func(netmodel.Delivery) {})
	}
	k.At(0, func() {
		for i := 1; i <= 30; i++ {
			for src := 0; src < 3; src++ {
				net.Endpoint(src).Send(3, 40, logPacket(src, det(event.Rank(src), uint64(i))))
			}
		}
	})
	k.Run()
	if s.MaxQueueLen != 67 {
		t.Fatalf("MaxQueueLen = %d, want 67", s.MaxQueueLen)
	}
}

// wire is the one-way delivery time of a b-byte message over idle links.
func wire(net *netmodel.Network, b int) sim.Time {
	return net.SerializationTime(b) + netmodel.Latency
}

// recordAcks collects the instants at which endpoint 0 receives packets.
func recordAcks(k *sim.Kernel, net *netmodel.Network) *[]sim.Time {
	var at []sim.Time
	net.Endpoint(0).SetHandler(func(netmodel.Delivery) { at = append(at, k.Now()) })
	return &at
}

func TestOutageDelaysArrivingRequest(t *testing.T) {
	// A request arriving during an outage is served once it ends.
	k, net, s := setup(t)
	cfg := DefaultConfig()
	acks := recordAcks(k, net)
	outage := 10 * sim.Millisecond
	k.At(0, func() { s.Suspend(outage) })
	k.At(sim.Millisecond, func() { net.Endpoint(0).Send(3, 40, logPacket(0, det(0, 1))) })
	k.Run()
	want := outage + cfg.PerPacket + PerEvent + wire(net, AckOverheadBytes+4*3)
	if len(*acks) != 1 || (*acks)[0] != want {
		t.Fatalf("acks at %v, want [%v]", *acks, want)
	}
}

func TestSuspendDuringServiceDelaysQueuedRequest(t *testing.T) {
	// A Suspend landing while a request is in service leaves that request's
	// ack on time; the request queued behind it waits for the outage's end.
	k, net, s := setup(t)
	cfg := DefaultConfig()
	acks := recordAcks(k, net)
	service := cfg.PerPacket + PerEvent
	ack := wire(net, AckOverheadBytes+4*3)
	arrive := wire(net, 40)
	outage := 5 * sim.Millisecond
	k.At(0, func() {
		net.Endpoint(0).Send(3, 40, logPacket(0, det(0, 1)))
		net.Endpoint(0).Send(3, 40, logPacket(0, det(0, 2)))
	})
	mid := arrive + service/2
	k.At(mid, func() {
		// The first request is in service, the second waits: the queue
		// length counts only the waiting one.
		if n := s.QueueLen(); n != 1 {
			t.Errorf("QueueLen = %d mid-service, want 1 (the request in service excluded)", n)
		}
		s.Suspend(outage)
	})
	k.Run()
	want := []sim.Time{arrive + service + ack, mid + outage + service + ack}
	if len(*acks) != 2 || (*acks)[0] != want[0] || (*acks)[1] != want[1] {
		t.Fatalf("acks at %v, want %v", *acks, want)
	}
}

func TestSuspendExtendsOutageForWaitingRequest(t *testing.T) {
	// A Suspend extending an outage while a request waits for its end
	// delays that request to the new end.
	k, net, s := setup(t)
	cfg := DefaultConfig()
	acks := recordAcks(k, net)
	k.At(0, func() { s.Suspend(10 * sim.Millisecond) })
	k.At(sim.Millisecond, func() { net.Endpoint(0).Send(3, 40, logPacket(0, det(0, 1))) })
	k.At(5*sim.Millisecond, func() { s.Suspend(20 * sim.Millisecond) })
	k.Run()
	want := 25*sim.Millisecond + cfg.PerPacket + PerEvent + wire(net, AckOverheadBytes+4*3)
	if len(*acks) != 1 || (*acks)[0] != want {
		t.Fatalf("acks at %v, want [%v]", *acks, want)
	}
}
