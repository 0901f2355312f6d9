package protocols

import (
	"mpichv/internal/causal/sparsevec"
	"mpichv/internal/daemon"
	"mpichv/internal/event"
	"mpichv/internal/sim"
	"mpichv/internal/vproto"
)

// Coordinated is the Chandy-Lamport coordinated checkpointing V-protocol
// (the Figure 1 baseline). There is no message logging: a checkpoint
// scheduler periodically triggers a marker flood that cuts a consistent
// global snapshot, recording in-transit messages as channel state. On any
// failure, every process rolls back to the latest complete wave.
type Coordinated struct {
	// pending is the local image of the in-progress wave, shipped once all
	// markers arrive.
	pending *vproto.CheckpointImage
	// doneEpoch is the latest wave this node completed.
	doneEpoch int
	// earlyMarkers counts markers that arrived for an epoch before this
	// node took its own snapshot of that epoch.
	earlyMarkers map[int][]event.Rank
}

// NewCoordinated returns the coordinated-checkpointing stack.
func NewCoordinated() *Coordinated {
	return &Coordinated{earlyMarkers: make(map[int][]event.Rank)}
}

// PreSend implements daemon.Protocol: nothing to do (no logging).
func (*Coordinated) PreSend(*daemon.Node, *vproto.Message) sim.Time { return 0 }

// OnDeliver implements daemon.Protocol: no determinants are created; the
// channel recording happens at packet acceptance (OnPacketAccepted).
func (*Coordinated) OnDeliver(*daemon.Node, *vproto.Message) {}

// OnPacketAccepted implements daemon.PacketObserver: while a snapshot is in
// progress, messages from channels that have not yet delivered their marker
// belong to the snapshot's channel state.
func (c *Coordinated) OnPacketAccepted(n *daemon.Node, m *vproto.Message) {
	if c.pending != nil && n.Recording[m.Src] {
		n.RecordedMsgs = append(n.RecordedMsgs, *m)
	}
}

// OnControl implements daemon.Protocol.
func (c *Coordinated) OnControl(n *daemon.Node, pkt *vproto.Packet) {
	switch pkt.Kind {
	case vproto.PktCkptRequest:
		if pkt.Epoch > c.doneEpoch && (c.pending == nil || c.pending.Epoch < pkt.Epoch) {
			n.RequestCheckpoint(pkt.Epoch)
		}
	case vproto.PktMarker:
		c.onMarker(n, event.Rank(pkt.Rank), pkt.Epoch)
	}
}

func (c *Coordinated) onMarker(n *daemon.Node, from event.Rank, epoch int) {
	if epoch <= c.doneEpoch {
		return // stale marker from a wave we already shipped
	}
	if c.pending == nil || c.pending.Epoch != epoch {
		// Marker before our own snapshot of this wave: remember it and make
		// sure the snapshot is scheduled (the scheduler's request may still
		// be in flight).
		c.earlyMarkers[epoch] = append(c.earlyMarkers[epoch], from)
		n.RequestCheckpoint(epoch)
		return
	}
	if n.Recording[from] {
		delete(n.Recording, from)
		n.MarkersWanted--
		if n.MarkersWanted == 0 {
			c.finish(n)
		}
	}
}

// TakeSnapshot implements daemon.Protocol: the Chandy-Lamport snapshot at
// an operation boundary — image now, markers out, record until markers in.
func (c *Coordinated) TakeSnapshot(n *daemon.Node) {
	epoch := n.CheckpointEpoch()
	if epoch <= c.doneEpoch || (c.pending != nil && c.pending.Epoch >= epoch) {
		return
	}
	// BuildImage captures the daemon-buffered receive queue as channel
	// state; messages still in transit from pre-cut senders are recorded
	// as they arrive, until every marker is in.
	c.pending = n.BuildImage()

	n.Recording = make(map[event.Rank]bool, n.NP())
	n.RecordedMsgs = nil
	n.MarkersWanted = 0
	early := c.earlyMarkers[epoch]
	delete(c.earlyMarkers, epoch)
	isEarly := func(r event.Rank) bool {
		for _, e := range early {
			if e == r {
				return true
			}
		}
		return false
	}
	for r := 0; r < n.NP(); r++ {
		if event.Rank(r) == n.Rank() || isEarly(event.Rank(r)) {
			continue
		}
		n.Recording[event.Rank(r)] = true
		n.MarkersWanted++
	}
	for r := 0; r < n.NP(); r++ {
		if event.Rank(r) == n.Rank() {
			continue
		}
		pkt := vproto.GetPacket()
		pkt.Kind = vproto.PktMarker
		pkt.Rank = n.Rank()
		pkt.Epoch = epoch
		n.SendPacket(r, 16, pkt)
	}
	if n.MarkersWanted == 0 {
		c.finish(n)
	}
}

// finish ships the completed snapshot (with its recorded channel state)
// asynchronously to the checkpoint server.
func (c *Coordinated) finish(n *daemon.Node) {
	im := c.pending
	c.pending = nil
	im.ChannelMsgs = append(im.ChannelMsgs, n.RecordedMsgs...)
	n.Recording = nil
	n.RecordedMsgs = nil
	c.doneEpoch = im.Epoch
	n.Stats().Checkpoints++
	n.Stats().CheckpointBytes += im.Bytes()
	pkt := vproto.GetPacket()
	pkt.Kind = vproto.PktCkptStore
	pkt.Image = im
	pkt.Rank = n.Rank()
	pkt.Epoch = im.Epoch
	n.SendPacket(n.CkptEndpoint, int(im.Bytes()), pkt)
}

// Snapshot implements daemon.Protocol (no protocol state beyond channels).
func (*Coordinated) Snapshot(*daemon.Node, *vproto.CheckpointImage) {}

// Restore implements daemon.Protocol.
func (c *Coordinated) Restore(n *daemon.Node, im *vproto.CheckpointImage) {
	c.pending = nil
	c.earlyMarkers = make(map[int][]event.Rank)
	c.doneEpoch = im.Epoch
}

// Integrate implements daemon.Protocol (nothing to integrate).
func (*Coordinated) Integrate(*daemon.Node, []event.Determinant, *sparsevec.Vec) {}

// HeldFor implements daemon.Protocol.
func (*Coordinated) HeldFor(event.Rank) []event.Determinant { return nil }
