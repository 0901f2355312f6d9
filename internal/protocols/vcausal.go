package protocols

import (
	"mpichv/internal/causal"
	"mpichv/internal/causal/sparsevec"
	"mpichv/internal/daemon"
	"mpichv/internal/event"
	"mpichv/internal/sim"
	"mpichv/internal/vproto"
)

// Vcausal is the causal message logging V-protocol, parameterized by a
// piggyback reducer ("vcausal", "manetho" or "logon" — the three protocols
// the paper compares all share this stack, per Figure 4). When the node
// has an Event Logger every reception determinant is shipped to it
// asynchronously, and its acknowledgments garbage collect volatile
// causality state.
type Vcausal struct {
	reducer     causal.Reducer
	reducerName string

	// pbFree recycles piggyback buffers: PreSend draws one, attaches it to
	// the outgoing message, and the receiving stack returns the buffer here
	// once the piggyback has been merged (OnDeliver). Buffers therefore
	// migrate between the single-threaded nodes of one cell, keeping the
	// per-send piggyback path allocation-free in steady state.
	pbFree [][]event.Determinant
}

// pbFreeMax bounds the buffer free list; asymmetric traffic patterns would
// otherwise pile every buffer of the run onto one receiver.
const pbFreeMax = 64

func (v *Vcausal) getPBBuf() []event.Determinant {
	if n := len(v.pbFree); n > 0 {
		b := v.pbFree[n-1]
		v.pbFree = v.pbFree[:n-1]
		return b
	}
	return nil
}

func (v *Vcausal) putPBBuf(b []event.Determinant) {
	if cap(b) == 0 || len(v.pbFree) >= pbFreeMax {
		return
	}
	v.pbFree = append(v.pbFree, b[:0])
}

// NewVcausal builds the causal stack for rank self of np processes with
// the named piggyback reducer.
func NewVcausal(reducerName string, self event.Rank, np int) *Vcausal {
	return &Vcausal{reducer: causal.New(reducerName, self, np), reducerName: reducerName}
}

// Held returns the volatile determinant count (the reducer store's size).
func (v *Vcausal) Held() int { return v.reducer.Held() }

// PreSend implements daemon.Protocol: attach the piggyback, log the
// payload, and return the serialization and logging CPU time.
func (v *Vcausal) PreSend(n *daemon.Node, m *vproto.Message) sim.Time {
	pb, ops := v.reducer.AppendPiggybackFor(m.Dst, v.getPBBuf())
	m.Piggyback = pb
	m.PiggybackBytes = v.reducer.PiggybackBytes(pb)

	cpu := sim.Time(ops)*daemon.CostPerOp + sim.Time(len(pb))*daemon.PerEventSend
	n.Stats().SendPiggybackTime += cpu
	return cpu + n.LogPayload(m)
}

// checkIDConflict collects a determinant-ID conflict latched by the last
// reducer merge and reports it as a determinant loss: a re-created ID is
// the merge-time signature of a peer's regressed recovery, classified here
// before the aliased antecedence edges can grow into a graph-cycle abort.
// The report halts the detecting incarnation (it does not return).
func (v *Vcausal) checkIDConflict(n *daemon.Node) {
	if existing, incoming, ok := v.reducer.TakeIDConflict(); ok {
		n.ReportDeterminantIDConflict(existing, incoming)
	}
}

// OnDeliver implements daemon.Protocol: merge the piggyback, create and
// record the reception determinant, ship it to the Event Logger (one charge).
func (v *Vcausal) OnDeliver(n *daemon.Node, m *vproto.Message) {
	ops := v.reducer.Merge(m.Src, m.Piggyback)
	v.checkIDConflict(n)
	pbLen := len(m.Piggyback)
	// The piggyback is fully absorbed into the reducer: recycle its buffer
	// for this node's own sends. Messages aliased into checkpoint images
	// carry deep copies (see Node.RecvQueueSnapshot), so no live reference
	// remains.
	v.putPBBuf(m.Piggyback)
	m.Piggyback = nil
	d, fresh := n.CreateDeterminant(m)
	ops += v.reducer.AddLocal(d)

	cpu := sim.Time(ops)*daemon.CostPerOp +
		sim.Time(pbLen)*daemon.PerEventRecv +
		daemon.EventCreate
	n.Stats().RecvPiggybackTime += cpu
	ship := fresh && n.ELEndpoint >= 0
	if ship {
		cpu += daemon.ELShip
	}
	n.ChargeCPU(cpu)

	if held := v.reducer.Held(); held > n.Stats().MaxHeldDeterminants {
		n.Stats().MaxHeldDeterminants = held
	}

	if ship {
		n.ShipDeterminant(d)
	}
}

// OnControl implements daemon.Protocol.
func (v *Vcausal) OnControl(n *daemon.Node, pkt *vproto.Packet) {
	switch pkt.Kind {
	case vproto.PktEventAck:
		ops := v.reducer.Stable(pkt.StableVec)
		n.ChargeCPU(sim.Time(ops) * daemon.CostPerOp)
	case vproto.PktCkptRequest:
		n.RequestCheckpoint(pkt.Epoch)
	}
}

// TakeSnapshot implements daemon.Protocol (uncoordinated blocking store).
func (v *Vcausal) TakeSnapshot(n *daemon.Node) { n.TakeCheckpoint() }

// Snapshot implements daemon.Protocol: a message-logging checkpoint image
// contains the process state, the held causality information and the
// sender-based payload log (§IV-B.2 of the paper); the daemon adds the log.
func (v *Vcausal) Snapshot(_ *daemon.Node, im *vproto.CheckpointImage) {
	im.Determinants = v.reducer.All()
}

// Restore implements daemon.Protocol: recovery rebuilds causality state
// conservatively in a fresh reducer (peers' knowledge maps are not
// restored; underestimating them is safe and only costs extra piggyback).
func (v *Vcausal) Restore(n *daemon.Node, im *vproto.CheckpointImage) {
	v.reducer = causal.New(v.reducerName, n.Rank(), n.NP())
	if len(im.Determinants) > 0 {
		v.reducer.Merge(n.Rank(), im.Determinants)
	}
}

// Integrate implements daemon.Protocol.
func (v *Vcausal) Integrate(n *daemon.Node, ds []event.Determinant, stable *sparsevec.Vec) {
	v.reducer.Merge(n.Rank(), ds)
	v.checkIDConflict(n)
	if stable != nil {
		v.reducer.Stable(stable)
	}
}

// HeldFor implements daemon.Protocol.
func (v *Vcausal) HeldFor(creator event.Rank) []event.Determinant {
	return v.reducer.HeldFor(creator)
}
