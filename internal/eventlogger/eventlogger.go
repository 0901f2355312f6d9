// Package eventlogger implements the Event Logger (EL): the reliable
// asynchronous storage for reception determinants that this paper shows to
// be a fundamental component of causal message logging protocols.
//
// The paper's server is a single select loop that stores each incoming
// event and answers with an acknowledgment carrying, for every process,
// the last event safely stored (the stable vector); it is modelled as the
// FIFO server it is, an endpoint handler serving one request at a time.
// With a per-event service cost, a high aggregate event rate saturates it
// — exactly the regime the paper observes on LU with 16 nodes, where
// acknowledgments lag and piggybacks can no longer be fully eliminated.
package eventlogger

import (
	"fmt"
	"unsafe"

	"mpichv/internal/causal/sparsevec"
	"mpichv/internal/event"
	"mpichv/internal/netmodel"
	"mpichv/internal/obs"
	"mpichv/internal/sim"
	"mpichv/internal/vproto"
)

// The service's fixed costs: every configuration in use shares them.
const (
	// PerEvent is the storage cost per determinant in a request.
	PerEvent = 8 * sim.Microsecond
	// AckOverheadBytes is the ack packet size beyond the stable vector.
	AckOverheadBytes = 16
)

// Config sets the server's varying service cost.
type Config struct {
	// PerPacket is the fixed cost of handling one request (select wakeup,
	// read, dispatch).
	PerPacket sim.Time
}

// DefaultConfig returns the per-request cost calibrated, with PerEvent,
// so that a single Event Logger comfortably absorbs BT/CG-class traffic (a
// few thousand events per second) but lags under the aggregate event rate
// of LU on 16 nodes (~20k events/s against a ~26k events/s service
// capacity): acknowledgments fall behind the send rate and piggybacks can
// no longer be fully eliminated — the paper's LU.16 observation.
func DefaultConfig() Config { return Config{PerPacket: 30 * sim.Microsecond} }

// Server is the Event Logger.
type Server struct {
	k   *sim.Kernel
	ep  *netmodel.Endpoint
	cfg Config
	np  int

	// store[c] holds every determinant created by rank c, held, in clock order.
	store [][]event.Held
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

	// suspendedUntil models an outage: the server starts no service
	// before it (see Suspend).
	suspendedUntil sim.Time

	// queue holds the requests in arrival order; queue[0] is in service.
	queue []*vproto.Packet
	// The timer events of the service and of a group's sync, built once.
	nextFn, finishFn, syncFn func()

	// Obs, when non-nil, receives backlog high-water marks and recovery
	// query marks. The emission sites are off the gated hot path (only a
	// new high-water mark and the per-recovery query emit), and a nil
	// recorder costs one branch.
	Obs *obs.Recorder
}

// New builds an Event Logger bound to endpoint ep of the network, serving
// np application processes, and installs its packet handler.
func New(k *sim.Kernel, net *netmodel.Network, endpoint, np int, cfg Config) *Server {
	s := &Server{
		k:      k,
		ep:     net.Endpoint(endpoint),
		cfg:    cfg,
		np:     np,
		store:  make([][]event.Held, np),
		stable: sparsevec.New(np),
	}
	s.nextFn, s.finishFn = s.next, s.finish
	s.ep.SetHandler(s.handle)
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

// handle queues a delivered request and starts it if the server is idle.
//
//mpichv:noalloc
func (s *Server) handle(d netmodel.Delivery) {
	if s.queue = append(s.queue, d.Payload.(*vproto.Packet)); len(s.queue) == 1 {
		s.next()
	}
}

// next starts the service time of queue[0] once no outage is pending. It
// checks again when the outage ends: a Suspend landing during the wait
// extends it for the request in hand too.
//
//mpichv:noalloc
func (s *Server) next() {
	if s.suspendedUntil > s.k.Now() {
		s.k.At(s.suspendedUntil, s.nextFn)
		return
	}
	service := s.cfg.PerPacket
	if pkt := s.queue[0]; pkt.Kind == vproto.PktEventLog {
		service += sim.Time(len(pkt.Determinants)) * PerEvent
	}
	s.k.After(service, s.finishFn)
}

// finish answers the request in service at the end of its service time,
// records the backlog high-water mark and starts the next request.
func (s *Server) finish() {
	pkt := s.queue[0]
	switch pkt.Kind {
	case vproto.PktEventLog:
		s.storeEvents(pkt.Determinants)
		// The acknowledgment's stable vector rides in packet-owned
		// scratch (AckVec): no consumer retains it past processing,
		// so the logging round-trip allocates nothing in steady state.
		ack := vproto.GetPacket()
		ack.Kind = vproto.PktEventAck
		ack.From = s.ep.ID()
		ack.AckVec(s.np).CopyFrom(s.stable)
		s.ep.Send(pkt.From, AckOverheadBytes+4*s.np, ack)

	case vproto.PktELSync:
		// Only entries for creators the peer is authoritative for can
		// exceed s's own, so a componentwise max is safe.
		s.stable.MaxFrom(pkt.StableVec)

	case vproto.PktEventQuery:
		s.QueriesServed++
		s.Obs.Record(s.k.Now(), obs.KindELQuery, int(pkt.Creator), 0, "")
		// Recovery responses are retained by the recovering node
		// (determinants and stable vector both), so they must carry
		// freshly allocated slices, never packet scratch or the store.
		dets := make([]event.Determinant, len(s.store[pkt.Creator]))
		for i, h := range s.store[pkt.Creator] {
			dets[i] = h.Det()
		}
		resp := vproto.GetPacket()
		resp.Kind = vproto.PktEventQueryResp
		resp.From = s.ep.ID()
		resp.Determinants = dets
		resp.StableVec = s.stable.Clone()
		resp.Incarnation = pkt.Incarnation // requester discards responses to a dead incarnation
		s.ep.Send(pkt.From, event.FactoredSize(dets)+AckOverheadBytes+4*s.np, resp)

	default:
		panic(fmt.Sprintf("eventlogger: unexpected packet kind %v", pkt.Kind))
	}
	vproto.PutPacket(pkt)
	s.queue = s.queue[:copy(s.queue, s.queue[1:])]
	if qlen := len(s.queue); qlen > s.MaxQueueLen {
		s.MaxQueueLen = qlen
		s.Obs.Record(s.k.Now(), obs.KindELBacklog, -1, int64(qlen), "")
	}
	if len(s.queue) > 0 {
		s.next()
	}
}

// storeEvents appends determinants to their creators' rows. Its gap panic
// is a code invariant that no input reaches: a rank ships in clock order
// over a FIFO rank→logger link, which no fault plan severs or degrades and
// netmodel never drops from, and a new incarnation's query queues behind
// its predecessor's ships. FuzzPlan asserts every store gapless.
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
		s.store[c] = append(s.store[c], event.Pack(d))
		s.stable.SetMax(int(c), d.ID.Clock)
		s.EventsStored++
	}
}

// Stable returns the current stable vector densely (tests and probes).
func (s *Server) Stable() []uint64 { return s.stable.Dense() }

// QueueLen returns the number of requests waiting behind the one in service
// (the gauge the observability sampler reads; MaxQueueLen is its maximum).
func (s *Server) QueueLen() int { return max(len(s.queue)-1, 0) }

// HeldBytes reports the host memory the store holds: capacity × entry size.
func (s *Server) HeldBytes() (b int64) {
	for _, row := range s.store {
		b += int64(cap(row)) * int64(unsafe.Sizeof(event.Held{}))
	}
	return b
}

// StoredFor returns the number of stored determinants of one creator.
func (s *Server) StoredFor(c event.Rank) int { return len(s.store[c]) }
