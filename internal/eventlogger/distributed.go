package eventlogger

import (
	"mpichv/internal/event"
	"mpichv/internal/netmodel"
	"mpichv/internal/sim"
	"mpichv/internal/vproto"
)

// This file implements the paper's future-work proposal (§VI): distributing
// the event logging over several Event Loggers to remove the single-server
// bottleneck observed on LU with 16 nodes.
//
// NewGroup deploys the loggers as a plain []*Server. Each process is
// assigned to one Event Logger (rank mod m, see EndpointFor: "assigning a
// subset of the nodes to one Event Logger seems the obvious way to gain
// scalability"). The difficulty the paper identifies is stability
// dissemination: a process may stop piggybacking an event only once it
// knows the event is stored, so every node must keep receiving an
// up-to-date array of logical clocks covering all creators. Two of the
// paper's candidate designs are implemented, each running once every
// SyncInterval on every logger:
//
//   - SyncExchange: each Event Logger multicasts its local stable array to
//     the other Event Loggers; nodes learn the merged array through their
//     own logger's acknowledgments.
//   - SyncBroadcast: each Event Logger broadcasts its local stable array
//     directly to every node (and to its peers).
//
// The ablation experiment ext-el compares the two against the
// single-logger baseline.

// SyncPolicy selects how distributed Event Loggers disseminate stability.
type SyncPolicy string

// Dissemination designs from the paper's conclusion.
const (
	// SyncExchange multicasts stable arrays between Event Loggers only.
	SyncExchange SyncPolicy = "exchange"
	// SyncBroadcast additionally broadcasts stable arrays to every node.
	SyncBroadcast SyncPolicy = "broadcast"
)

// SyncInterval is the stability dissemination period of distributed Event
// Loggers.
const SyncInterval = 2 * sim.Millisecond

// NewGroup builds n Event Loggers on consecutive endpoints starting at
// firstEndpoint, serving np application processes, and, when there is
// more than one, arms each one's sync timer under the given policy.
func NewGroup(k *sim.Kernel, net *netmodel.Network, firstEndpoint, np, n int, sync SyncPolicy, cfg Config) []*Server {
	if n < 1 {
		panic("eventlogger: group needs at least one server")
	}
	els := make([]*Server, n)
	for i := range els {
		els[i] = New(k, net, firstEndpoint+i, np, cfg)
	}
	if n > 1 {
		for _, s := range els {
			s.syncFn = func() { s.syncTick(els, sync) }
			k.After(SyncInterval, s.syncFn)
		}
	}
	return els
}

// EndpointFor returns the endpoint of the Event Logger in els that serves
// the given rank: rank mod len(els).
func EndpointFor(els []*Server, rank event.Rank) int {
	return els[int(rank)%len(els)].ep.ID()
}

// syncTick disseminates s's merged stable array to the other Event
// Loggers of the group and, under SyncBroadcast, to every node, then
// re-arms itself one SyncInterval later.
//
//mpichv:noalloc
func (s *Server) syncTick(group []*Server, sync SyncPolicy) {
	bytes := 16 + 4*s.np
	// One pooled packet per destination, each with its own copy of the
	// stable array in packet-owned scratch: packets are released (and
	// their scratch reused) independently by each consumer, so sharing
	// one packet or one vector across the multicast would corrupt
	// whichever copies are still in flight.
	for _, peer := range group {
		if peer != s {
			pkt := vproto.GetPacket()
			pkt.Kind = vproto.PktELSync
			pkt.From = s.ep.ID()
			pkt.AckVec(s.np).CopyFrom(s.stable)
			s.ep.Send(peer.ep.ID(), bytes, pkt)
		}
	}
	if sync == SyncBroadcast {
		for r := 0; r < s.np; r++ {
			// Nodes treat the broadcast exactly like an acknowledgment:
			// both carry a stable array.
			pkt := vproto.GetPacket()
			pkt.Kind = vproto.PktEventAck
			pkt.From = s.ep.ID()
			pkt.AckVec(s.np).CopyFrom(s.stable)
			s.ep.Send(r, bytes, pkt)
		}
	}
	s.k.After(SyncInterval, s.syncFn)
}
