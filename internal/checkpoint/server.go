// Package checkpoint implements the stable checkpoint server and the
// checkpoint scheduler of the MPICH-V framework (§IV-B of the paper).
package checkpoint

import (
	"fmt"

	"mpichv/internal/event"
	"mpichv/internal/netmodel"
	"mpichv/internal/sim"
	"mpichv/internal/vproto"
)

// ServerConfig sets the checkpoint server's storage costs.
type ServerConfig struct {
	// WritePerByte is the disk-write cost per stored byte.
	WritePerByte sim.Time
	// FixedPerOp is the transaction bookkeeping cost.
	FixedPerOp sim.Time
}

// DefaultServerConfig models the paper's IDE-disk checkpoint server
// (~35 MB/s writes).
func DefaultServerConfig() ServerConfig {
	return ServerConfig{
		WritePerByte: sim.Time(28), // 28 ns/B ≈ 35 MB/s
		FixedPerOp:   200 * sim.Microsecond,
	}
}

// Server is the transactional checkpoint image store. It is multiprocess
// in the paper (one process per client), so concurrent stores from
// different clients do not serialize on a single service loop; here each
// request is handled by an independent deferred completion, with the
// network already serializing the data transfer.
type Server struct {
	k   *sim.Kernel
	ep  *netmodel.Endpoint
	cfg ServerConfig
	np  int

	// latest[r] is rank r's most recent committed image.
	latest map[event.Rank]*vproto.CheckpointImage
	// byEpoch[e] collects the images of wave e (coordinated protocol).
	byEpoch map[int]map[event.Rank]*vproto.CheckpointImage
	// completeEpoch is the newest wave for which all np images committed.
	completeEpoch int

	// suspendedUntil models an outage: requests arriving before it are
	// served only after the server comes back (see Suspend).
	suspendedUntil sim.Time

	// Stores counts committed store transactions.
	Stores int64
	// Fetches counts served image fetches.
	Fetches int64
}

// NewServer builds a checkpoint server on the given endpoint and installs
// its packet handler.
func NewServer(k *sim.Kernel, net *netmodel.Network, endpoint, np int, cfg ServerConfig) *Server {
	s := &Server{
		k:             k,
		ep:            net.Endpoint(endpoint),
		cfg:           cfg,
		np:            np,
		latest:        make(map[event.Rank]*vproto.CheckpointImage),
		byEpoch:       make(map[int]map[event.Rank]*vproto.CheckpointImage),
		completeEpoch: -1,
	}
	s.ep.SetHandler(s.handle)
	return s
}

// Suspend takes the server offline for d of virtual time starting now,
// modeling a crash-reboot of the checkpoint-server machine with its stable
// storage intact: requests arriving during the outage are answered only
// after it ends. Overlapping suspensions extend the outage.
func (s *Server) Suspend(d sim.Time) {
	if until := s.k.Now() + d; until > s.suspendedUntil {
		s.suspendedUntil = until
	}
}

// outageDelay is the extra service latency a request arriving now pays for
// a pending outage.
func (s *Server) outageDelay() sim.Time {
	if s.suspendedUntil > s.k.Now() {
		return s.suspendedUntil - s.k.Now()
	}
	return 0
}

func (s *Server) handle(d netmodel.Delivery) {
	pkt := d.Payload.(*vproto.Packet)
	// Copy whatever the deferred completions below need out of the packet:
	// the shell is released when this handler returns, before they fire.
	from, rank, incarnation := pkt.From, pkt.Rank, pkt.Incarnation
	switch pkt.Kind {
	case vproto.PktCkptStore:
		im := pkt.Image
		delay := s.outageDelay() + s.cfg.FixedPerOp + sim.Time(im.Bytes()*int64(s.cfg.WritePerByte))
		// The transaction commits only after the full write; a client crash
		// mid-transfer never reaches this handler at all (the network
		// delivers whole messages), so images are always intact.
		s.k.After(delay, func() {
			s.commit(im)
			ack := vproto.GetPacket()
			ack.Kind = vproto.PktCkptAck
			ack.From = s.ep.ID()
			ack.Rank = im.Rank
			ack.Epoch = im.Epoch
			s.ep.Send(from, 16, ack)
		})

	case vproto.PktCkptFetch:
		s.Fetches++
		var im *vproto.CheckpointImage
		switch pkt.Epoch {
		case -2: // latest complete wave (coordinated rollback)
			if s.completeEpoch >= 0 {
				im = s.byEpoch[s.completeEpoch][rank]
			}
		default: // latest committed image for the rank
			im = s.latest[rank]
		}
		bytes := int64(32)
		if im != nil {
			bytes = im.Bytes()
		}
		s.k.After(s.outageDelay()+s.cfg.FixedPerOp, func() {
			resp := vproto.GetPacket()
			resp.Kind = vproto.PktCkptImage
			resp.From = s.ep.ID()
			resp.Image = im
			resp.Rank = rank
			resp.Incarnation = incarnation
			s.ep.Send(from, int(bytes), resp)
		})

	default:
		panic(fmt.Sprintf("checkpoint: unexpected packet kind %v", pkt.Kind))
	}
	vproto.PutPacket(pkt)
}

func (s *Server) commit(im *vproto.CheckpointImage) {
	s.Stores++
	if cur := s.latest[im.Rank]; cur == nil || im.Epoch >= cur.Epoch {
		s.latest[im.Rank] = im
	}
	wave := s.byEpoch[im.Epoch]
	if wave == nil {
		wave = make(map[event.Rank]*vproto.CheckpointImage)
		s.byEpoch[im.Epoch] = wave
	}
	wave[im.Rank] = im
	if len(wave) == s.np && im.Epoch > s.completeEpoch {
		s.completeEpoch = im.Epoch
	}
	// Prune stale waves: only the latest complete wave and recent building
	// waves can ever be fetched again; without pruning, uncoordinated
	// schedules (one rank per epoch) would accumulate every image forever.
	for e := range s.byEpoch {
		if e != s.completeEpoch && e < im.Epoch-4 {
			delete(s.byEpoch, e)
		}
	}
}

// CompleteEpoch returns the newest wave with all images committed (-1 if
// none).
func (s *Server) CompleteEpoch() int { return s.completeEpoch }

// HasImage reports whether rank has a committed image.
func (s *Server) HasImage(r event.Rank) bool { return s.latest[r] != nil }
