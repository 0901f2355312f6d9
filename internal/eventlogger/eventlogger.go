// Package eventlogger implements the Event Logger (EL): the reliable
// asynchronous storage for reception determinants that this paper shows to
// be a fundamental component of causal message logging protocols.
//
// The server mirrors the paper's implementation: a single select-loop
// process that stores each incoming event and answers with an
// acknowledgment carrying, for every process, the last event safely stored
// (the stable vector). Because it is single threaded with a per-event
// service cost, a high aggregate event rate saturates it — exactly the
// regime the paper observes on LU with 16 nodes, where acknowledgments lag
// and piggybacks can no longer be fully eliminated.
package eventlogger

import (
	"fmt"

	"mpichv/internal/causal/sparsevec"
	"mpichv/internal/event"
	"mpichv/internal/netmodel"
	"mpichv/internal/obs"
	"mpichv/internal/sim"
	"mpichv/internal/vproto"
)

// Config sets the server's service costs.
type Config struct {
	// PerPacket is the fixed cost of handling one request (select wakeup,
	// read, dispatch).
	PerPacket sim.Time
	// PerEvent is the storage cost per determinant in a request.
	PerEvent sim.Time
	// AckOverheadBytes is the ack packet size beyond the stable vector.
	AckOverheadBytes int
}

// DefaultConfig returns service costs calibrated so that a single Event
// Logger comfortably absorbs BT/CG-class traffic (a few thousand events
// per second) but lags under the aggregate event rate of LU on 16 nodes
// (~20k events/s against a ~26k events/s service capacity): acknowledgments
// fall behind the send rate and piggybacks can no longer be fully
// eliminated — the paper's LU.16 observation.
func DefaultConfig() Config {
	return Config{
		PerPacket:        30 * sim.Microsecond,
		PerEvent:         8 * sim.Microsecond,
		AckOverheadBytes: 16,
	}
}

// Server is the Event Logger process.
type Server struct {
	k   *sim.Kernel
	ep  *netmodel.Endpoint
	cfg Config
	np  int

	// store[c] holds every determinant created by rank c, in clock order.
	store [][]event.Determinant
	// stable holds the highest stored clock per creator. Acknowledgments
	// are charged the dense 4·np encoding (the paper's ack format).
	stable *sparsevec.Vec

	// EventsStored counts determinants persisted over the run.
	EventsStored int64
	// QueriesServed counts recovery queries.
	QueriesServed int64
	// MaxQueueLen is the high-water mark of the request queue (saturation
	// indicator).
	MaxQueueLen int

	// suspendedUntil models an outage: the select loop serves nothing
	// before it (see Suspend).
	suspendedUntil sim.Time

	// Obs, when non-nil, receives backlog high-water marks and recovery
	// query marks. The emission sites are off the gated hot path (only a
	// new high-water mark and the per-recovery query emit), and a nil
	// recorder costs one branch.
	Obs *obs.Recorder
}

// New builds an Event Logger bound to endpoint ep of the network, serving
// np application processes, and spawns its service loop.
func New(k *sim.Kernel, net *netmodel.Network, endpoint, np int, cfg Config) *Server {
	s := &Server{
		k:      k,
		ep:     net.Endpoint(endpoint),
		cfg:    cfg,
		np:     np,
		store:  make([][]event.Determinant, np),
		stable: sparsevec.New(np),
	}
	k.Spawn("event-logger", s.run)
	return s
}

// Suspend takes the server offline for d of virtual time starting now,
// modeling a crash-reboot of the Event Logger machine with its stable
// array intact: requests already queued and requests arriving during the
// outage are served only after it ends, so acknowledgments (and with them
// piggyback elimination) lag until the backlog drains. Overlapping
// suspensions extend the outage.
func (s *Server) Suspend(d sim.Time) {
	if until := s.k.Now() + d; until > s.suspendedUntil {
		s.suspendedUntil = until
	}
}

// run is the select loop: take one request, pay its service time, answer.
func (s *Server) run(p *sim.Proc) {
	for {
		if qlen := s.ep.Inbox.Len(); qlen > s.MaxQueueLen {
			s.MaxQueueLen = qlen
			s.Obs.Record(s.k.Now(), obs.KindELBacklog, -1, int64(qlen), "")
		}
		d := s.ep.Inbox.Get(p)
		// Re-check after waking: a Suspend landing mid-sleep extends the
		// outage for the request in hand too.
		for s.suspendedUntil > s.k.Now() {
			p.Sleep(s.suspendedUntil - s.k.Now())
		}
		pkt := d.Payload.(*vproto.Packet)
		switch pkt.Kind {
		case vproto.PktEventLog:
			p.Sleep(s.cfg.PerPacket + sim.Time(len(pkt.Determinants))*s.cfg.PerEvent)
			s.storeEvents(pkt.Determinants)
			// The acknowledgment's stable vector rides in packet-owned
			// scratch (AckVec): no consumer retains it past processing,
			// so the logging round-trip allocates nothing in steady state.
			ack := vproto.GetPacket()
			ack.Kind = vproto.PktEventAck
			ack.From = s.ep.ID()
			ack.AckVec(s.np).CopyFrom(s.stable)
			s.ep.Send(pkt.From, s.cfg.AckOverheadBytes+4*s.np, ack)

		case vproto.PktELSync:
			p.Sleep(s.cfg.PerPacket)
			s.mergeStable(pkt.StableVec)

		case vproto.PktEventQuery:
			p.Sleep(s.cfg.PerPacket)
			s.QueriesServed++
			s.Obs.Record(s.k.Now(), obs.KindELQuery, int(pkt.Creator), 0, "")
			// Recovery responses are retained by the recovering node
			// (determinants and stable vector both), so they must carry
			// freshly allocated slices, never packet scratch.
			dets := append([]event.Determinant(nil), s.store[pkt.Creator]...)
			resp := vproto.GetPacket()
			resp.Kind = vproto.PktEventQueryResp
			resp.From = s.ep.ID()
			resp.Determinants = dets
			resp.StableVec = s.stable.Clone()
			resp.Incarnation = pkt.Incarnation // requester discards responses to a dead incarnation
			s.ep.Send(pkt.From, event.FactoredSize(dets)+s.cfg.AckOverheadBytes+4*s.np, resp)

		default:
			panic(fmt.Sprintf("eventlogger: unexpected packet kind %v", pkt.Kind))
		}
		vproto.PutPacket(pkt)
	}
}

func (s *Server) storeEvents(ds []event.Determinant) {
	for _, d := range ds {
		c := d.ID.Creator
		if int(c) < 0 || int(c) >= s.np {
			panic(fmt.Sprintf("eventlogger: determinant for unknown rank %d", c))
		}
		have := s.stable.Get(int(c))
		if d.ID.Clock <= have {
			continue // duplicate (replay re-ship)
		}
		if d.ID.Clock != have+1 {
			panic(fmt.Sprintf("eventlogger: gap in event stream of rank %d: have %d, got %d",
				c, have, d.ID.Clock))
		}
		s.store[c] = append(s.store[c], d)
		s.stable.SetMax(int(c), d.ID.Clock)
		s.EventsStored++
	}
}

// Stable returns the current stable vector densely (tests and probes).
func (s *Server) Stable() []uint64 { return s.stable.Dense() }

// QueueLen returns the current request-queue length (the gauge the
// observability sampler reads; MaxQueueLen is its high-water mark).
func (s *Server) QueueLen() int { return s.ep.Inbox.Len() }

// StoredFor returns the number of stored determinants of one creator.
func (s *Server) StoredFor(c event.Rank) int { return len(s.store[c]) }
