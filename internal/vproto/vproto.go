// Package vproto defines the wire vocabulary of the MPICH-V framework
// (Figure 4 of the paper): the application message format, the packet kinds
// the generic communication daemon transports between nodes, the Event
// Logger, the checkpoint server and the dispatcher, and the checkpoint
// image layout. The fault-tolerance hook API itself (the V-protocol
// interface) lives in internal/daemon, whose implementations (Vdummy,
// Vcausal with any piggyback reducer, pessimistic logging, coordinated
// checkpointing) turn the shared daemon into one stack or another.
package vproto

import (
	"sync"

	"mpichv/internal/causal/sparsevec"
	"mpichv/internal/event"
)

// Message is one application-level MPI message as the daemon carries it.
type Message struct {
	Src, Dst event.Rank
	Tag      int
	Bytes    int // application payload size

	// SendSeq is the per-(sender, destination) channel sequence number
	// (1-based, consecutive per pair); together with Src and Dst it
	// identifies the message for determinant logging, sender-based replay
	// and duplicate suppression, and keeps the per-channel dedup floors
	// contiguous.
	SendSeq uint64
	// Lamport is the sender's Lamport clock at emission.
	Lamport uint64
	// SenderLast is the sender's latest nondeterministic event at emission
	// (the antecedence-graph cross edge for the reception determinant).
	SenderLast event.EventID

	// Piggyback carries causality determinants (causal protocols only).
	Piggyback      []event.Determinant
	PiggybackBytes int

	// Replay marks a message re-sent from a sender log during recovery.
	Replay bool

	// Inc is the sender's incarnation (recovery epoch) at transmission.
	// Receivers that have been told a higher incarnation of the sender is
	// live — the dispatcher announces it when it fences a falsely suspected
	// process — discard the stale incarnation's packets instead of letting
	// their piggybacks corrupt the antecedence graph.
	Inc int
}

// PacketKind discriminates daemon-to-daemon and daemon-to-server packets.
type PacketKind uint8

const (
	// PktApp carries an application Message.
	PktApp PacketKind = iota
	// PktEventLog carries determinants from a node to the Event Logger.
	PktEventLog
	// PktEventAck is the Event Logger's acknowledgment: a stable vector
	// (highest safely stored clock per creator).
	PktEventAck
	// PktEventQuery asks the Event Logger for every determinant of one
	// creator (restart).
	PktEventQuery
	// PktEventQueryResp answers a PktEventQuery.
	PktEventQueryResp
	// PktDetRequest asks a peer for its held determinants of one creator
	// and for replay of logged payloads sent to it (restart without EL,
	// and payload replay in general).
	PktDetRequest
	// PktDetResponse answers a PktDetRequest with determinants; logged
	// payloads are re-sent separately as PktApp messages with Replay set.
	PktDetResponse
	// PktCkptStore ships a checkpoint image to the checkpoint server.
	PktCkptStore
	// PktCkptAck acknowledges a completed checkpoint transaction.
	PktCkptAck
	// PktCkptFetch asks the checkpoint server for one of a rank's images;
	// its Epoch is a fetch selector (FetchLatest, FetchLatestWave).
	PktCkptFetch
	// PktCkptImage answers a PktCkptFetch.
	PktCkptImage
	// PktCkptGC tells senders which payloads a checkpointed receiver no
	// longer needs (sender-based log garbage collection).
	PktCkptGC
	// PktMarker is a Chandy-Lamport marker (coordinated checkpointing).
	PktMarker
	// PktCkptRequest is the checkpoint scheduler telling a node to take a
	// checkpoint now.
	PktCkptRequest
	// PktELSync carries one Event Logger's stable array to a peer logger
	// (distributed Event Logger extension).
	PktELSync
)

// PktCkptFetch selectors, carried in Packet.Epoch.
const (
	// FetchLatest selects the rank's latest committed image.
	FetchLatest = -1
	// FetchLatestWave selects the rank's image of the latest complete
	// coordinated wave (coordinated rollback).
	FetchLatestWave = -2
)

// String returns the packet kind mnemonic.
func (k PacketKind) String() string {
	names := [...]string{"app", "evlog", "evack", "evquery", "evresp",
		"detreq", "detresp", "ckstore", "ckack", "ckfetch", "ckimage",
		"ckgc", "marker", "ckreq", "elsync"}
	if int(k) < len(names) {
		return names[k]
	}
	return "?"
}

// Packet is the unit the simulated network carries between endpoints.
type Packet struct {
	Kind PacketKind
	From int // source endpoint id

	// App is set for PktApp.
	App *Message

	// Determinants is set for event-log, query-response and det-response
	// packets.
	Determinants []event.Determinant
	// StableVec is set for PktEventAck, PktELSync and PktEventQueryResp: the
	// stable vector (highest safely stored clock per creator). Ack-class
	// packets point it at the pooled inline buffer (see AckVec); query
	// responses carry freshly allocated vectors because the recovering node
	// retains them.
	StableVec *sparsevec.Vec
	// Creator scopes PktEventQuery / PktDetRequest.
	Creator event.Rank
	// SeqFloor is the lowest send sequence (exclusive) the requester
	// already consumed, for payload replay in PktDetRequest; for PktCkptGC
	// it is the per-sender consumed sequence.
	SeqFloor uint64
	// WantDets asks the PktDetRequest target to include its held
	// determinants of Creator in the response (restart without an Event
	// Logger).
	WantDets bool
	// Epoch tags checkpoint waves and marker floods.
	Epoch int
	// Incarnation tags recovery round-trips (checkpoint fetch, event
	// query, det request) with the requester's recovery epoch; responders
	// echo it so a response addressed to a dead incarnation can be
	// discarded by the next one.
	Incarnation int
	// Image is set for PktCkptStore / PktCkptImage.
	Image *CheckpointImage
	// Rank scopes checkpoint operations and PktCkptRequest.
	Rank event.Rank

	// det is inline storage for the single-determinant Event Logger
	// shipment — the highest-rate control packet in the system — so that
	// pooled packets carry it without a per-send slice allocation.
	det [1]event.Determinant
	// stableBuf is the reusable stable-vector storage behind AckVec. Its
	// floor array survives pooling cycles, so a steady acknowledgment
	// stream allocates nothing.
	stableBuf sparsevec.Vec
}

// SetDeterminant attaches a single determinant using the packet's inline
// storage (no slice allocation). Receivers must copy determinants out
// before the packet is released, which every consumer in this codebase
// already does.
//
//mpichv:noalloc
func (p *Packet) SetDeterminant(d event.Determinant) {
	p.det[0] = d
	p.Determinants = p.det[:1]
}

// AckVec points StableVec at the packet-owned stable-vector buffer, reset
// for a world of n creators, and returns it for the caller to fill. It must
// only be used for packet kinds whose consumers do not retain StableVec
// past packet processing (PktEventAck and PktELSync); recovery responses
// (PktEventQueryResp) are retained by the recovering node and must carry
// freshly allocated vectors.
//
//mpichv:noalloc
func (p *Packet) AckVec(n int) *sparsevec.Vec {
	p.stableBuf.Reset(n)
	p.StableVec = &p.stableBuf
	return p.StableVec
}

// packetPool recycles Packet shells across the whole process. Packet
// contents never cross simulation cells — a packet is reset before reuse —
// so sharing the pool between concurrently running sweep cells is safe and
// keeps every cell's steady-state packet traffic allocation-free.
var packetPool = sync.Pool{New: func() any { return new(Packet) }}

// GetPacket returns a zeroed packet from the pool. Senders fill it and hand
// it to exactly one endpoint; the final consumer calls PutPacket.
//
//mpichv:amortized pool refill: sync.Pool allocates a shell only when the pool is empty; steady traffic recycles
func GetPacket() *Packet { return packetPool.Get().(*Packet) }

// PutPacket resets p and returns it to the pool. Retained payloads (App
// messages, checkpoint images, recovery stable vectors) live on with their
// retainers; only the shell and its inline scratch are recycled. Callers
// must be the packet's single terminal consumer.
//
//mpichv:noalloc
func PutPacket(p *Packet) {
	if p == nil {
		return
	}
	vec := p.stableBuf
	*p = Packet{}
	p.stableBuf = vec
	packetPool.Put(p)
}

// CheckpointImage is a process state snapshot as stored by the checkpoint
// server. In the simulation the application state is a step counter (the
// workload programs are deterministic); everything else is real protocol
// state.
type CheckpointImage struct {
	Rank  event.Rank
	Epoch int
	// Step is the number of completed MPI operations at snapshot time; on
	// restart the program fast-forwards through that many operations.
	Step int64
	// AppBytes is the modeled size of the application state.
	AppBytes int64
	// Clock and Lamport restore the process's logging counters; SendSeqs
	// restores the per-destination channel sequence counters.
	Clock    uint64
	SendSeqs sparsevec.Vec
	Lamport  uint64
	// LastSeqSeen holds the highest send sequence consumed from each rank
	// (duplicate suppression floor after restart).
	LastSeqSeen sparsevec.Vec
	// Determinants are the held causality events at snapshot time.
	Determinants []event.Determinant
	// LoggedPayloads are the sender-log entries at snapshot time, so a
	// restarted process can still serve replay requests from before its
	// own crash.
	LoggedPayloads []Message
	// ChannelMsgs are in-transit messages recorded by the Chandy-Lamport
	// marker algorithm (coordinated checkpointing only); they are
	// re-injected into the receive queue when the image is restored.
	ChannelMsgs []Message
}

// ChannelMsgHeaderBytes is the modeled per-message framing of one recorded
// in-transit message inside a coordinated checkpoint image (source, tag,
// sequence, length).
const ChannelMsgHeaderBytes = 32

// Bytes returns the modeled on-wire size of the image: application state,
// logged payloads, held determinants (factored encoding), the channel-sequence
// floors (SendSeqs and LastSeqSeen, charged at their interval-coded run
// encoding so the cost tracks active channels, not world size), recorded
// in-transit channel messages, and a fixed header.
func (im *CheckpointImage) Bytes() int64 {
	b := im.AppBytes + int64(event.FactoredSize(im.Determinants)) + 64
	b += im.SendSeqs.EncodedBytes() + im.LastSeqSeen.EncodedBytes()
	for i := range im.LoggedPayloads {
		b += int64(im.LoggedPayloads[i].Bytes)
	}
	for i := range im.ChannelMsgs {
		b += ChannelMsgHeaderBytes + int64(im.ChannelMsgs[i].Bytes)
	}
	return b
}
