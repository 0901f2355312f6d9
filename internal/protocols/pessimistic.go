package protocols

import (
	"mpichv/internal/causal/sparsevec"
	"mpichv/internal/daemon"
	"mpichv/internal/event"
	"mpichv/internal/vproto"
)

// Pessimistic is the pessimistic sender-based message logging V-protocol
// (MPICH-V2 style, the Figure 1 baseline): every reception determinant is
// shipped to the Event Logger like the causal stacks do, but a process may
// not send a message until all of its own events have been acknowledged as
// safely stored. No causality is ever piggybacked; the price is a
// synchronous wait on the Event Logger round-trip in the send path.
type Pessimistic struct {
	ackedOwn uint64 // highest own-event clock acknowledged by the EL
}

// NewPessimistic returns the pessimistic logging stack. It requires an
// Event Logger in the deployment.
func NewPessimistic() *Pessimistic { return &Pessimistic{} }

// PreSend implements daemon.Protocol: block until the Event Logger has
// acknowledged every local event, then log the payload.
func (p *Pessimistic) PreSend(n *daemon.Node, m *vproto.Message) {
	if n.ELEndpoint < 0 {
		panic("protocols: pessimistic logging requires an Event Logger")
	}
	for p.ackedOwn < n.Clock() {
		n.WaitPacket()
	}
	n.ChargeCPU(n.LogPayload(m))
}

// OnDeliver implements daemon.Protocol: create the determinant and ship it
// synchronously (the wait happens at the next send).
func (p *Pessimistic) OnDeliver(n *daemon.Node, m *vproto.Message) {
	d, fresh := n.CreateDeterminant(m)
	n.ChargeCPU(daemon.EventCreate)
	if fresh {
		n.ShipDeterminant(d)
	} else if d.ID.Clock > p.ackedOwn {
		// Replayed events were already collected from the EL.
		p.ackedOwn = d.ID.Clock
	}
}

// OnControl implements daemon.Protocol.
func (p *Pessimistic) OnControl(n *daemon.Node, pkt *vproto.Packet) {
	switch pkt.Kind {
	case vproto.PktEventAck:
		if v := pkt.StableVec.Get(int(n.Rank())); v > p.ackedOwn {
			p.ackedOwn = v
		}
	case vproto.PktCkptRequest:
		n.RequestCheckpoint(pkt.Epoch)
	}
}

// TakeSnapshot implements daemon.Protocol (uncoordinated blocking store).
func (*Pessimistic) TakeSnapshot(n *daemon.Node) { n.TakeCheckpoint() }

// Snapshot implements daemon.Protocol: the daemon's image (clock, floors,
// sender log) is the whole pessimistic state.
func (*Pessimistic) Snapshot(*daemon.Node, *vproto.CheckpointImage) {}

// Restore implements daemon.Protocol.
func (p *Pessimistic) Restore(n *daemon.Node, im *vproto.CheckpointImage) {
	p.ackedOwn = im.Clock
}

// Integrate implements daemon.Protocol: collected determinants come from
// the Event Logger, so they are all stable.
func (p *Pessimistic) Integrate(n *daemon.Node, ds []event.Determinant, stable *sparsevec.Vec) {
	for _, d := range ds {
		if d.ID.Creator == n.Rank() && d.ID.Clock > p.ackedOwn {
			p.ackedOwn = d.ID.Clock
		}
	}
}

// HeldFor implements daemon.Protocol: pessimistic nodes hold no peers'
// determinants (everything lives at the Event Logger).
func (*Pessimistic) HeldFor(event.Rank) []event.Determinant { return nil }
