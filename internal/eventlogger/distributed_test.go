package eventlogger

import (
	"testing"

	"mpichv/internal/event"
	"mpichv/internal/netmodel"
	"mpichv/internal/sim"
	"mpichv/internal/vproto"
)

func TestGroupAssignment(t *testing.T) {
	k := sim.NewKernel(1)
	net := netmodel.New(k, netmodel.FastEthernet(), 8)
	els := NewGroup(k, net, 4, 4, 2, SyncExchange, DefaultConfig())
	if got := EndpointFor(els, 0); got != 4 {
		t.Errorf("rank 0 -> endpoint %d, want 4", got)
	}
	if got := EndpointFor(els, 1); got != 5 {
		t.Errorf("rank 1 -> endpoint %d, want 5", got)
	}
	if got := EndpointFor(els, 2); got != 4 {
		t.Errorf("rank 2 -> endpoint %d, want 4", got)
	}
	if len(els) != 2 {
		t.Fatalf("%d servers", len(els))
	}
}

func TestExchangeSyncPropagatesStability(t *testing.T) {
	k := sim.NewKernel(1)
	net := netmodel.New(k, netmodel.FastEthernet(), 6)
	els := NewGroup(k, net, 4, 4, 2, SyncExchange, DefaultConfig())
	net.Endpoint(0).SetHandler(func(netmodel.Delivery) {})

	// Rank 0 (served by logger 0) logs three events.
	k.At(0, func() {
		for clk := uint64(1); clk <= 3; clk++ {
			net.Endpoint(0).Send(4, 44, &vproto.Packet{
				Kind: vproto.PktEventLog, From: 0,
				Determinants: []event.Determinant{
					{ID: event.EventID{Creator: 0, Clock: clk}, Sender: 1, SendSeq: clk},
				},
			})
		}
	})
	k.RunUntil(10 * sim.Millisecond)

	// After a few sync rounds, logger 1 must know rank 0's stability even
	// though it never stored those events.
	if got := els[1].Stable()[0]; got != 3 {
		t.Fatalf("peer logger stable[0] = %d, want 3 after exchange sync", got)
	}
	// But it must not hold the events themselves (they are sharded).
	if els[1].StoredFor(0) != 0 {
		t.Error("peer logger stored events outside its shard")
	}
	if stored := els[0].EventsStored + els[1].EventsStored; stored != 3 {
		t.Errorf("group stored %d events, want 3", stored)
	}
}

func TestBroadcastSyncReachesNodes(t *testing.T) {
	k := sim.NewKernel(1)
	net := netmodel.New(k, netmodel.FastEthernet(), 6)
	NewGroup(k, net, 4, 4, 2, SyncBroadcast, DefaultConfig())
	acksAt0 := 0
	net.Endpoint(0).SetHandler(func(d netmodel.Delivery) {
		if d.Payload.(*vproto.Packet).Kind == vproto.PktEventAck {
			acksAt0++
		}
	})
	k.RunUntil(3 * SyncInterval)
	if acksAt0 < 4 { // 2 loggers x >=2 rounds
		t.Fatalf("node received %d stability broadcasts, want several", acksAt0)
	}
}

func TestGroupSingleServerBehavesClassically(t *testing.T) {
	k := sim.NewKernel(1)
	net := netmodel.New(k, netmodel.FastEthernet(), 4)
	els := NewGroup(k, net, 2, 2, 1, SyncExchange, DefaultConfig())
	for r := event.Rank(0); r < 2; r++ {
		if EndpointFor(els, r) != 2 {
			t.Errorf("rank %d -> endpoint %d, want 2", r, EndpointFor(els, r))
		}
	}
	if els[0].MaxQueueLen != 0 {
		t.Error("fresh group reports backlog")
	}
}

func TestGroupRejectsZeroServers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	k := sim.NewKernel(1)
	net := netmodel.New(k, netmodel.FastEthernet(), 2)
	NewGroup(k, net, 0, 2, 0, SyncExchange, DefaultConfig())
}
