package protocols

import (
	"fmt"

	"mpichv/internal/causal"
	"mpichv/internal/causal/sparsevec"
	"mpichv/internal/daemon"
	"mpichv/internal/event"
	"mpichv/internal/sim"
	"mpichv/internal/vproto"
)

// elLogPacketBytes is the wire size of one asynchronous event-log packet:
// a factored single-event body plus the daemon packet header.
const elLogPacketBytes = event.FactoredGroupHeader + event.FactoredEventSize + 24

// Vcausal is the causal message logging V-protocol, parameterized by a
// piggyback reducer ("vcausal", "manetho" or "logon" — the three protocols
// the paper compares all share this stack, per Figure 4). When useEL is
// true every reception determinant is shipped asynchronously to the Event
// Logger and its acknowledgments garbage collect volatile causality state.
type Vcausal struct {
	reducer     causal.Reducer
	reducerName string
	useEL       bool

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
func NewVcausal(reducerName string, self event.Rank, np int, useEL bool) *Vcausal {
	return &Vcausal{
		reducer:     causal.New(reducerName, self, np),
		reducerName: reducerName,
		useEL:       useEL,
	}
}

// Name implements daemon.Protocol.
func (v *Vcausal) Name() string {
	suffix := "+el"
	if !v.useEL {
		suffix = "-noel"
	}
	return fmt.Sprintf("vcausal/%s%s", v.reducerName, suffix)
}

// Held returns the volatile determinant count (the reducer store's size).
func (v *Vcausal) Held() int { return v.reducer.Held() }

// PreSend implements daemon.Protocol: attach the piggyback, log the
// payload, charge the serialization CPU time.
func (v *Vcausal) PreSend(n *daemon.Node, m *vproto.Message) {
	pb, ops := v.reducer.AppendPiggybackFor(m.Dst, v.getPBBuf())
	m.Piggyback = pb
	m.PiggybackBytes = v.reducer.PiggybackBytes(pb)

	cpu := sim.Time(ops)*n.Cal.CostPerOp + sim.Time(len(pb))*n.Cal.PerEventSend
	n.Stats().SendPiggybackTime += cpu

	// Sender-based payload logging.
	n.Log.Append(*m)
	if n.Log.Bytes() > n.Stats().MaxSenderLogBytes {
		n.Stats().MaxSenderLogBytes = n.Log.Bytes()
	}
	cpu += n.Cal.SenderLogOverhead + sim.Time(int64(m.Bytes)*int64(n.Cal.SenderLogPerByte))
	n.ChargeCPU(cpu)
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
// record the reception determinant, ship it to the Event Logger.
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

	cpu := sim.Time(ops)*n.Cal.CostPerOp +
		sim.Time(pbLen)*n.Cal.PerEventRecv +
		n.Cal.EventCreate
	n.Stats().RecvPiggybackTime += cpu
	n.ChargeCPU(cpu)

	if held := v.reducer.Held(); held > n.Stats().MaxHeldDeterminants {
		n.Stats().MaxHeldDeterminants = held
	}

	if fresh && v.useEL && n.ELEndpoint >= 0 {
		n.ChargeCPU(n.Cal.ELShip)
		n.Stats().EventsLogged++
		pkt := vproto.GetPacket()
		pkt.Kind = vproto.PktEventLog
		pkt.SetDeterminant(d)
		n.SendPacket(n.ELEndpoint, elLogPacketBytes, pkt)
	}
}

// OnControl implements daemon.Protocol.
func (v *Vcausal) OnControl(n *daemon.Node, pkt *vproto.Packet) {
	switch pkt.Kind {
	case vproto.PktEventAck:
		ops := v.reducer.Stable(pkt.StableVec)
		n.ChargeCPU(sim.Time(ops) * n.Cal.CostPerOp)
	case vproto.PktCkptRequest:
		n.RequestCheckpoint(pkt.Epoch)
	}
}

// TakeSnapshot implements daemon.Protocol (uncoordinated blocking store).
func (v *Vcausal) TakeSnapshot(n *daemon.Node) { n.TakeCheckpoint() }

// Snapshot implements daemon.Protocol: a message-logging checkpoint image
// contains the process state, the held causality information and the
// sender-based payload log (§IV-B.2 of the paper).
func (v *Vcausal) Snapshot(n *daemon.Node, im *vproto.CheckpointImage) {
	im.Determinants = v.reducer.All()
	im.SenderLogBytes = n.Log.Bytes()
	im.LoggedPayloads = n.Log.Snapshot()
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

// UsesSenderLog implements daemon.Protocol.
func (v *Vcausal) UsesSenderLog() bool { return true }
