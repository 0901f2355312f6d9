package protocols

import (
	"mpichv/internal/causal/sparsevec"
	"mpichv/internal/daemon"
	"mpichv/internal/event"
	"mpichv/internal/sim"
	"mpichv/internal/vproto"
)

// Pessimistic is the pessimistic sender-based message logging V-protocol
// (MPICH-V2 style, the Figure 1 baseline): every reception determinant is
// shipped to the Event Logger like the causal stacks do, but a process may
// not send a message until all of its own events have been acknowledged as
// safely stored. No causality is ever piggybacked; the price is a
// synchronous wait on the Event Logger round-trip in the send path.
//
// Snapshot and HeldFor are Vdummy's: the daemon's image (clock, floors,
// sender log) is the whole pessimistic state, and a pessimistic node holds
// no peer's determinants, since every one lives at the Event Logger.
type Pessimistic struct {
	Vdummy
	ackedOwn uint64 // highest own-event clock acknowledged by the EL
}

// NewPessimistic returns the pessimistic logging stack. It requires an
// Event Logger in the deployment.
func NewPessimistic() *Pessimistic { return &Pessimistic{} }

// PreSend implements daemon.Protocol: block until the Event Logger has
// acknowledged every local event, then log the payload.
func (p *Pessimistic) PreSend(n *daemon.Node, m *vproto.Message) sim.Time {
	if n.ELEndpoint < 0 {
		panic("protocols: pessimistic logging requires an Event Logger")
	}
	for p.ackedOwn < n.Clock() {
		n.WaitPacket()
	}
	return n.LogPayload(m)
}

// OnDeliver implements daemon.Protocol: create the determinant and ship it
// synchronously (the wait happens at the next send), as one charge.
func (p *Pessimistic) OnDeliver(n *daemon.Node, m *vproto.Message) {
	d, fresh := n.CreateDeterminant(m)
	cpu := daemon.EventCreate
	if fresh {
		cpu += daemon.ELShip
	}
	n.ChargeCPU(cpu)
	if fresh {
		n.ShipDeterminant(d)
	} else if d.ID.Clock > p.ackedOwn {
		// Replayed events were already collected from the EL.
		p.ackedOwn = d.ID.Clock
	}
}

// OnControl implements daemon.Protocol.
func (p *Pessimistic) OnControl(n *daemon.Node, pkt *vproto.Packet) {
	if pkt.Kind != vproto.PktEventAck {
		return
	}
	if v := pkt.StableVec.Get(int(n.Rank())); v > p.ackedOwn {
		p.ackedOwn = v
	}
}

// TakeSnapshot implements daemon.Protocol (uncoordinated blocking store).
func (*Pessimistic) TakeSnapshot(n *daemon.Node) { n.TakeCheckpoint() }

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
