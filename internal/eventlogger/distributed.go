package eventlogger

import (
	"mpichv/internal/causal/sparsevec"
	"mpichv/internal/event"
	"mpichv/internal/netmodel"
	"mpichv/internal/sim"
	"mpichv/internal/vproto"
)

// This file implements the paper's future-work proposal (§VI): distributing
// the event logging over several Event Loggers to remove the single-server
// bottleneck observed on LU with 16 nodes.
//
// Each process is assigned to one Event Logger (rank mod m, "assigning a
// subset of the nodes to one Event Logger seems the obvious way to gain
// scalability"). The difficulty the paper identifies is stability
// dissemination: a process may stop piggybacking an event only once it
// knows the event is stored, so every node must keep receiving an
// up-to-date array of logical clocks covering all creators. Two of the
// paper's candidate designs are implemented:
//
//   - SyncExchange: each Event Logger periodically multicasts its local
//     stable array to the other Event Loggers; nodes learn the merged
//     array through their own logger's acknowledgments.
//   - SyncBroadcast: each Event Logger periodically broadcasts its local
//     stable array directly to every node (and to its peers).
//
// The ablation experiment (experiment.ExtDistributedELReport) compares the two
// against the single-logger baseline.

// SyncPolicy selects how distributed Event Loggers disseminate stability.
type SyncPolicy string

// Dissemination designs from the paper's conclusion.
const (
	// SyncExchange multicasts stable arrays between Event Loggers only.
	SyncExchange SyncPolicy = "exchange"
	// SyncBroadcast additionally broadcasts stable arrays to every node.
	SyncBroadcast SyncPolicy = "broadcast"
)

// GroupConfig configures a distributed Event Logger group.
type GroupConfig struct {
	// Servers is the number of Event Loggers (≥ 1).
	Servers int
	// Sync selects the dissemination design (ignored for one server).
	Sync SyncPolicy
	// SyncInterval is the dissemination period.
	SyncInterval sim.Time
	// Service is the per-server service cost model.
	Service Config
}

// Group is a set of Event Loggers sharing the logging load.
type Group struct {
	cfg     GroupConfig
	np      int
	servers []*Server
}

// NewGroup builds cfg.Servers Event Loggers on consecutive endpoints
// starting at firstEndpoint, serving np application processes, and starts
// their service and synchronization loops.
func NewGroup(k *sim.Kernel, net *netmodel.Network, firstEndpoint, np int, cfg GroupConfig) *Group {
	if cfg.Servers < 1 {
		panic("eventlogger: group needs at least one server")
	}
	g := &Group{cfg: cfg, np: np}
	for i := 0; i < cfg.Servers; i++ {
		g.servers = append(g.servers, New(k, net, firstEndpoint+i, np, cfg.Service))
	}
	if cfg.Servers > 1 && cfg.SyncInterval > 0 {
		for _, s := range g.servers {
			s := s
			k.Spawn("el-sync", func(p *sim.Proc) { g.syncLoop(p, s) })
		}
	}
	return g
}

// EndpointFor returns the Event Logger endpoint serving the given rank.
func (g *Group) EndpointFor(rank event.Rank) int {
	return g.servers[int(rank)%len(g.servers)].ep.ID()
}

// Servers returns the group members.
func (g *Group) Servers() []*Server { return g.servers }

// EventsStored sums events persisted across the group.
func (g *Group) EventsStored() int64 {
	var total int64
	for _, s := range g.servers {
		total += s.EventsStored
	}
	return total
}

// MaxQueueLen returns the worst backlog across the group.
func (g *Group) MaxQueueLen() int {
	m := 0
	for _, s := range g.servers {
		if s.MaxQueueLen > m {
			m = s.MaxQueueLen
		}
	}
	return m
}

// syncLoop periodically disseminates s's merged stable array according to
// the group's policy.
func (g *Group) syncLoop(p *sim.Proc, s *Server) {
	bytes := 16 + 4*g.np
	for {
		p.Sleep(g.cfg.SyncInterval)
		// One pooled packet per destination, each with its own copy of the
		// stable array in packet-owned scratch: packets are released (and
		// their scratch reused) independently by each consumer, so sharing
		// one packet or one vector across the multicast would corrupt
		// whichever copies are still in flight.
		for _, peer := range g.servers {
			if peer != s {
				pkt := vproto.GetPacket()
				pkt.Kind = vproto.PktELSync
				pkt.From = s.ep.ID()
				pkt.AckVec(g.np).CopyFrom(s.stable)
				s.ep.Send(peer.ep.ID(), bytes, pkt)
			}
		}
		if g.cfg.Sync == SyncBroadcast {
			for r := 0; r < g.np; r++ {
				// Nodes treat the broadcast exactly like an acknowledgment:
				// both carry a stable array.
				pkt := vproto.GetPacket()
				pkt.Kind = vproto.PktEventAck
				pkt.From = s.ep.ID()
				pkt.AckVec(g.np).CopyFrom(s.stable)
				s.ep.Send(r, bytes, pkt)
			}
		}
	}
}

// mergeStable folds a peer's stable vector into s's view. Only entries for
// creators the peer is authoritative for can exceed s's own, so a
// componentwise max is safe.
func (s *Server) mergeStable(vec *sparsevec.Vec) {
	s.stable.MaxFrom(vec)
}
