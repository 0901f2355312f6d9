package daemon

import (
	"testing"

	"mpichv/internal/event"
	"mpichv/internal/sim"
	"mpichv/internal/vproto"
)

// TestWitnessedAppliesTheArrivalFence pins the witness scan's reading of
// the incarnation fence. Rank 1's stale incarnation 0 has been fenced
// (every peer now accepts only incarnation 1 and later); each of its
// packets to rank 2 carries one determinant of creator 0. A copy riding a
// packet the destination will discard on arrival is lost, wherever the
// packet is; the same packet from the current incarnation is a witness,
// and so is a delivery held on a downed link, which a heal releases.
func TestWitnessedAppliesTheArrivalFence(t *testing.T) {
	k, net, nodes := nullNodes(3)
	nodes[0].FenceIncarnation(1, 1)
	nodes[2].FenceIncarnation(1, 1)
	send := func(inc int, clock uint64) {
		pkt := vproto.GetPacket()
		pkt.Kind = vproto.PktApp
		pkt.App = &vproto.Message{
			Src: 1, Dst: 2, Tag: 1, Bytes: 10, SendSeq: clock, Inc: inc,
			Piggyback: []event.Determinant{{ID: event.EventID{Creator: 0, Clock: clock}}},
		}
		net.Endpoint(1).Send(2, 10, pkt)
	}
	const (
		inboxStale = iota + 1
		inboxCurrent
		wireStale
		wireCurrent
		heldStale
		heldCurrent
	)
	want := [...]bool{
		inboxStale:   false,
		inboxCurrent: true,
		wireStale:    false,
		wireCurrent:  true,
		heldStale:    false,
		heldCurrent:  true,
	}

	k.At(0, func() {
		send(0, inboxStale)
		send(1, inboxCurrent)
	})
	arrived := sim.Millisecond
	k.At(arrived, func() {
		if got := nodes[2].ep.Inbox.Len(); got != 2 {
			t.Fatalf("rank 2's inbox holds %d packets, want 2", got)
		}
		send(0, wireStale)
		send(1, wireCurrent)
		net.DownLink(1, 2)
		send(0, heldStale)
		send(1, heldCurrent)
	})
	var got []bool
	k.At(arrived+1, func() { got = Witnessed(nodes, net, 0, 1, heldCurrent) })
	k.Run()

	if net.Link(1, 2).HeldCount() != 2 {
		t.Fatalf("%d deliveries held on the downed link, want 2", net.Link(1, 2).HeldCount())
	}
	for clock := inboxStale; clock <= heldCurrent; clock++ {
		if got[clock-1] != want[clock] {
			t.Errorf("clock %d witnessed = %v, want %v", clock, got[clock-1], want[clock])
		}
	}
}
