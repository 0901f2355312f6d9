package protocols

import (
	"mpichv/internal/daemon"
	"mpichv/internal/event"
	"mpichv/internal/vproto"
)

// Coordinated is the Chandy-Lamport coordinated checkpointing V-protocol
// (the Figure 1 baseline). There is no message logging, so the logging
// hooks are Vdummy's: a checkpoint scheduler periodically triggers a
// marker flood that cuts a consistent global snapshot, and the daemon
// records in-transit messages as channel state. On any failure, every
// process rolls back to the latest complete wave.
type Coordinated struct {
	Vdummy
	// pending is the local image of the in-progress wave, shipped once all
	// markers arrive.
	pending *vproto.CheckpointImage
	// doneEpoch is the latest wave this node completed.
	doneEpoch int
	// earlyMarkers lists, per epoch, the senders whose marker arrived
	// before this node took its own snapshot of that epoch.
	earlyMarkers map[int][]event.Rank
}

// NewCoordinated returns the coordinated-checkpointing stack.
func NewCoordinated() *Coordinated {
	return &Coordinated{earlyMarkers: make(map[int][]event.Rank)}
}

// OnControl implements daemon.Protocol.
func (c *Coordinated) OnControl(n *daemon.Node, pkt *vproto.Packet) {
	if pkt.Kind == vproto.PktMarker {
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
		// be in flight). A finished program never reaches another operation
		// boundary, and its state is final: it snapshots at once.
		c.earlyMarkers[epoch] = append(c.earlyMarkers[epoch], from)
		n.RequestCheckpoint(epoch)
		if n.Done() {
			c.TakeSnapshot(n)
		}
		return
	}
	if n.Recording[from] {
		delete(n.Recording, from)
		if len(n.Recording) == 0 {
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

	// Record every channel but this rank's own, sending each its marker,
	// then drop those whose marker came early; the cut is complete when
	// the set is empty.
	n.Recording = make(map[event.Rank]bool, n.NP())
	n.RecordedMsgs = nil
	for r := 0; r < n.NP(); r++ {
		if event.Rank(r) == n.Rank() {
			continue
		}
		n.Recording[event.Rank(r)] = true
		pkt := vproto.GetPacket()
		pkt.Kind = vproto.PktMarker
		pkt.Rank = n.Rank()
		pkt.Epoch = epoch
		n.SendPacket(r, 16, pkt)
	}
	for _, r := range c.earlyMarkers[epoch] {
		delete(n.Recording, r)
	}
	delete(c.earlyMarkers, epoch)
	if len(n.Recording) == 0 {
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

// Restore implements daemon.Protocol.
func (c *Coordinated) Restore(n *daemon.Node, im *vproto.CheckpointImage) {
	c.pending = nil
	c.earlyMarkers = make(map[int][]event.Rank)
	c.doneEpoch = im.Epoch
}
