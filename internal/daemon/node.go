// Package daemon implements the generic MPICH-V communication daemon
// (Vdaemon) and the V-protocol hook interface that fault-tolerance stacks
// plug into (Figure 4 of the paper).
//
// One Node represents one computing node: the MPI process plus its
// communication daemon. The paper runs them as two OS processes joined by
// pipes; the simulation folds both into one simulated process and charges
// the pipe crossings as CPU time (StackConfig.PipeOverhead/PipePerByte),
// which preserves the measured MPICH-P4 → MPICH-Vdummy latency gap while
// keeping every protocol action on one deterministic timeline.
//
// Incoming packets are processed when the process touches the
// communication layer (send, receive, or explicit waits) — the same
// single-threaded progress semantics as MPICH's ch_p4 device.
package daemon

import (
	"mpichv/internal/causal/sparsevec"
	"mpichv/internal/event"
	"mpichv/internal/netmodel"
	"mpichv/internal/obs"
	"mpichv/internal/sim"
	"mpichv/internal/trace"
	"mpichv/internal/vproto"
)

// AnySource matches any sender rank in Recv.
const AnySource = event.Rank(-1)

// DeliveryRecord identifies the message consumed at one program step.
type DeliveryRecord struct {
	Step    int64
	Src     event.Rank
	SendSeq uint64
}

// detRequest is a recovering peer's service request, copied out of its
// pooled packet so it can be held across this node's own restore.
type detRequest struct {
	creator     event.Rank
	wantDets    bool
	seqFloor    uint64
	incarnation int
}

func detRequestFrom(pkt *vproto.Packet) detRequest {
	return detRequest{
		creator:     pkt.Creator,
		wantDets:    pkt.WantDets,
		seqFloor:    pkt.SeqFloor,
		incarnation: pkt.Incarnation,
	}
}

// Protocol is the V-protocol fault-tolerance hook API. The generic daemon
// calls these hooks at fixed points; implementations (Vdummy, Vcausal,
// pessimistic, coordinated) supply the fault-tolerance behaviour.
type Protocol interface {
	// PreSend runs in the sender's context before m is transmitted; it may
	// attach piggyback, log the payload (LogPayload) or block. Send charges
	// the CPU cost it returns with the transmit cost, as one sleep.
	PreSend(n *Node, m *vproto.Message) sim.Time
	// OnDeliver runs in the receiver's context when an application message
	// is delivered to the application (MPI match).
	OnDeliver(n *Node, m *vproto.Message)
	// OnControl handles protocol-specific control packets (Event Logger
	// acknowledgments, markers, ...).
	OnControl(n *Node, pkt *vproto.Packet)
	// TakeSnapshot performs the protocol's checkpoint procedure at an
	// operation boundary: message-logging stacks block on a transactional
	// store; coordinated checkpointing runs the Chandy-Lamport marker
	// algorithm.
	TakeSnapshot(n *Node)
	// Snapshot contributes protocol state to a checkpoint image.
	Snapshot(n *Node, im *vproto.CheckpointImage)
	// Restore rebuilds protocol state from a checkpoint image at restart.
	Restore(n *Node, im *vproto.CheckpointImage)
	// Integrate feeds determinants and a stability vector collected during
	// recovery into the protocol state (stable may be nil).
	Integrate(n *Node, ds []event.Determinant, stable *sparsevec.Vec)
	// HeldFor returns held determinants created by the given rank, for
	// serving a recovering peer (nil when the protocol keeps none).
	HeldFor(creator event.Rank) []event.Determinant
}

// Node is one computing node of the MPICH-V deployment. Its state has three
// lifetimes: wiring, set when the deployment is built; daemon state, which
// outlives the application process; and the embedded incarnation, the
// process's volatile state, which a restart replaces whole (restore).
type Node struct {
	// Wiring.
	k   *sim.Kernel
	net *netmodel.Network
	ep  *netmodel.Endpoint

	rank event.Rank
	np   int

	// Stack is the software cost model; Proto is the fault-tolerance
	// stack.
	Stack StackConfig
	Proto Protocol

	// Endpoint ids of the auxiliary stable servers (-1 when not deployed).
	ELEndpoint   int
	CkptEndpoint int

	// AppStateBytes is the modeled size of the application state, included
	// in checkpoint images (set by the workload).
	AppStateBytes int64

	// inboxReady is Compute's poll predicate (a delivered packet waits),
	// built once so that pacing a computation allocates nothing.
	inboxReady func() bool

	// LossCheck reports which of creator's determinants with clocks in
	// [from, to] — missing from this node's reassembled replay set — are
	// still witnessed anywhere else in the deployment (bitmap indexed
	// clock-from). cluster.New installs Witnessed over all its nodes; a
	// missing determinant that is witnessed will still be merged through
	// normal piggyback flow, while an unwitnessed one is lost for good.
	LossCheck func(creator event.Rank, from, to uint64) []bool
	// OnDeterminantLoss receives determinant-loss diagnostics; the reporting
	// incarnation halts afterwards (see reportDeterminantLoss). cluster.New
	// installs it on every node.
	OnDeterminantLoss func(DeterminantLoss)

	// Obs, when non-nil, receives recovery-phase and checkpoint timeline
	// events. Emission sites sit only on cold paths (recovery boundaries,
	// checkpoint transactions); the per-message paths carry none, and a nil
	// recorder costs one branch per site.
	Obs *obs.Recorder

	// RecordDeliveries enables the delivery log used by consistency tests:
	// replayed executions must consume the same message at every program
	// step as the original run.
	RecordDeliveries bool

	// Daemon state: each field survives a restart on purpose.

	// proc and done are the running incarnation's; Bind sets them before
	// restore runs.
	proc *sim.Proc
	done bool
	// The recovery state machine (recovery.go; transition writes both).
	// recoveryEpoch numbers incarnations: it tags recovery requests so a
	// dead incarnation's responses cannot satisfy the next one's rendezvous.
	phase         phase
	recoveryEpoch int
	// held buffers phaseRestoring's messages and markers in arrival order;
	// a kill mid-restore leaves them to the next incarnation's flush.
	held []*vproto.Packet
	// heldDetReqs buffers service requests from other recovering ranks
	// that arrived while this node was itself dead or restoring: serving
	// them before the sender log and protocol state are back would replay
	// from empty state and strand the peer's recovery forever.
	heldDetReqs []detRequest
	// peerEpoch[r] is the lowest incarnation of rank r this daemon still
	// accepts application packets from. It stays zero — and the fence
	// inert — until the dispatcher fences a falsely suspected rank and the
	// deployment announces the replacement incarnation (FenceIncarnation):
	// from then on the stale incarnation's packets, including the ones a
	// healed partition releases, are discarded instead of corrupting the
	// sequence trackers and the antecedence graph.
	peerEpoch []int
	// fencedRestart marks that this rank's previous incarnation was fenced
	// while alive (false suspicion); the next PrepareRecovery re-transmits
	// the restored sender log because of it.
	fencedRestart bool
	// Deliveries lists every consumption in order, re-executions included.
	Deliveries []DeliveryRecord
	// stats sums the probes over incarnations.
	stats trace.Stats

	incarnation
}

// incarnation is the volatile state of one run of the application process.
// restore replaces it with a fresh value that keeps only the storage of
// seqTrack and sendSeq (restoreImage overwrites every entry) and of the two
// determinant buffers.
type incarnation struct {
	// MPI receive machinery.
	recvQ    []*vproto.Message
	seqTrack []seqTracker

	// Event-logging counters.
	clock     uint64
	sendSeq   []uint64 // per-destination channel sequence counters
	lamport   uint64
	lastEvent event.EventID
	// lastSendClock is the event clock at the most recent application send
	// that reached the wire: every determinant at or below it travelled in
	// some piggyback, so a peer witnessed it and recovery must be able to
	// reassemble it (the determinant-loss detector's watermark).
	lastSendClock uint64

	// Program position: step counts completed MPI operations, each as it
	// finishes; operations started with step < skipUntil are
	// fast-forwarded after a restart.
	step      int64
	skipUntil int64

	// Replay: determinants the restarted process must conform to.
	replayDets []event.Determinant
	replayIdx  int

	// Checkpointing.
	ckptRequested bool
	ckptEpoch     int
	awaitCkptAck  bool

	// This incarnation's recovery: charged marks one that feeds the
	// recovery probes, recoveryStart is when it entered restoring.
	charged       bool
	recoveryStart sim.Time
	// Recovery rendezvous state, filled by recoveryResponse while the
	// recovery steps wait.
	pendingImage   *vproto.CheckpointImage
	collectedDets  []event.Determinant
	collectedStab  *sparsevec.Vec
	detRespsWanted int

	// Coordinated-protocol channel recording (Chandy-Lamport): the
	// channels whose marker is still due and the messages recorded on
	// them. The coordinated stack opens and closes the set; the daemon
	// records each accepted message from a channel in it. They sit in the
	// incarnation so that a restart drops a dead incarnation's cut at once.
	Recording    map[event.Rank]bool
	RecordedMsgs []vproto.Message

	// Log is the sender-based payload log (message-logging stacks).
	Log *SenderLog
}

// NewNode builds a node bound to endpoint rank of net.
func NewNode(k *sim.Kernel, net *netmodel.Network, rank event.Rank, np int,
	stack StackConfig, proto Protocol) *Node {
	n := &Node{
		k: k, net: net, ep: net.Endpoint(int(rank)),
		rank: rank, np: np,
		Stack: stack, Proto: proto,
		ELEndpoint: -1, CkptEndpoint: -1,
		peerEpoch: make([]int, np),
		incarnation: incarnation{
			seqTrack: make([]seqTracker, np),
			sendSeq:  make([]uint64, np),
			Log:      new(SenderLog),
		},
	}
	n.inboxReady = func() bool { return n.ep.Inbox.Len() > 0 }
	return n
}

// Bind attaches the node to its (re)spawned simulated process. It must be
// called at the top of every incarnation's body.
func (n *Node) Bind(p *sim.Proc) {
	n.proc = p
	n.done = false
}

// Accessors.

// Rank returns the node's MPI rank.
func (n *Node) Rank() event.Rank { return n.rank }

// NP returns the number of application processes.
func (n *Node) NP() int { return n.np }

// Now returns the current virtual time.
func (n *Node) Now() sim.Time { return n.k.Now() }

// Network returns the network the node is attached to.
func (n *Node) Network() *netmodel.Network { return n.net }

// Stats returns the node's measurement probes.
func (n *Node) Stats() *trace.Stats { return &n.stats }

// Skipping reports whether the node is fast-forwarding to its checkpointed
// program position.
func (n *Node) Skipping() bool { return n.step < n.skipUntil }

// Replaying reports whether deliveries are being conformed to collected
// determinants.
func (n *Node) Replaying() bool { return n.replayIdx < len(n.replayDets) }

// Clock returns the node's nondeterministic-event clock (the number of
// reception determinants it has created).
func (n *Node) Clock() uint64 { return n.clock }

// NextIncarnation returns the incarnation the node's next recovery will
// run as. The dispatcher announces it when it fences a falsely suspected
// rank: the announcement happens at respawn time, before the replacement
// incarnation's PrepareRecovery increments the epoch.
func (n *Node) NextIncarnation() int { return n.recoveryEpoch + 1 }

// FenceIncarnation discards future application packets from incarnations
// of rank r below inc — the receiver side of the dispatcher's incarnation
// announcement after a false suspicion. The fence only ever tightens.
func (n *Node) FenceIncarnation(r event.Rank, inc int) {
	if inc > n.peerEpoch[r] {
		n.peerEpoch[r] = inc
	}
}

// fenced reports whether m comes from a sender incarnation this daemon no
// longer accepts (peerEpoch): the one fence rule, applied on arrival, to
// packets held while restoring, and by the witness scan (Witnessed).
func (n *Node) fenced(m *vproto.Message) bool { return m.Inc < n.peerEpoch[m.Src] }

// MarkFencedRestart tells the node its previous incarnation was fenced
// while alive, so the next PrepareRecovery re-transmits the restored sender
// log. Installed by the deployment layer on the dispatcher's fence
// announcement.
func (n *Node) MarkFencedRestart() { n.fencedRestart = true }

// recvQueueSnapshot returns copies of the currently delivered, unconsumed
// application messages (Chandy-Lamport channel-state seeding). Piggyback
// slices are deep-copied: the live messages' buffers return to the
// piggyback free list once delivered, and a checkpoint image must not alias
// recycled memory.
func (n *Node) recvQueueSnapshot() []vproto.Message {
	out := make([]vproto.Message, 0, len(n.recvQ))
	for _, m := range n.recvQ {
		cp := *m
		if len(cp.Piggyback) > 0 {
			cp.Piggyback = append([]event.Determinant(nil), cp.Piggyback...)
		}
		out = append(out, cp)
	}
	return out
}

// ChargeCPU blocks the node's process for d of virtual compute time.
func (n *Node) ChargeCPU(d sim.Time) { n.proc.Sleep(d) }

// SendPacket transmits a control packet to an endpoint, accounting it as
// protocol control traffic.
func (n *Node) SendPacket(endpoint int, bytes int, pkt *vproto.Packet) {
	pkt.From = n.ep.ID()
	if pkt.Kind != vproto.PktApp {
		n.stats.ControlBytes += int64(bytes)
		n.stats.ControlMsgs++
	}
	n.ep.Send(endpoint, bytes, pkt)
}

// LogPayload is sender-based payload logging, shared by every logging
// stack: it appends m to the sender log and returns the logging CPU cost,
// which the caller charges (folded into its own charge, so the send path
// keeps one sleep).
func (n *Node) LogPayload(m *vproto.Message) sim.Time {
	n.Log.Append(*m)
	if n.Log.Bytes() > n.stats.MaxSenderLogBytes {
		n.stats.MaxSenderLogBytes = n.Log.Bytes()
	}
	return SenderLogOverhead + sim.Time(m.Bytes)*SenderLogPerByte
}

// elLogPacketBytes is the wire size of one asynchronous event-log packet:
// a factored single-event body plus the daemon packet header.
const elLogPacketBytes = event.FactoredGroupHeader + event.FactoredEventSize + 24

// ShipDeterminant sends d asynchronously to the Event Logger, whose ack
// arrives later as a PktEventAck. The caller charges ELShip with its own.
func (n *Node) ShipDeterminant(d event.Determinant) {
	n.stats.EventsLogged++
	pkt := vproto.GetPacket()
	pkt.Kind = vproto.PktEventLog
	pkt.SetDeterminant(d)
	n.SendPacket(n.ELEndpoint, elLogPacketBytes, pkt)
}

// --- Application-facing operations (the MPI layer builds on these) ---

// computeChunk bounds how long the daemon goes unresponsive during
// application computation: between chunks it drains delivered packets, so
// incoming messages are accepted and recovery/control requests are served
// while the application computes — as the real MPICH-V daemon does from
// its own process.
const computeChunk = 500 * sim.Microsecond

// Compute models d of application computation.
func (n *Node) Compute(d sim.Time) {
	n.maybeCheckpoint()
	for !n.Skipping() && d > 0 {
		d = n.proc.SleepPolled(d, computeChunk, n.inboxReady)
		n.drain()
	}
	n.step++
}

// Send transmits an application message of the given payload size.
func (n *Node) Send(dst event.Rank, tag int, bytes int) {
	n.maybeCheckpoint()
	n.drain()
	if n.Skipping() {
		n.step++
		return
	}
	n.sendSeq[dst]++
	m := &vproto.Message{
		Src: n.rank, Dst: dst, Tag: tag, Bytes: bytes,
		SendSeq: n.sendSeq[dst], Lamport: n.lamport, SenderLast: n.lastEvent,
	}
	n.ChargeCPU(n.Proto.PreSend(n, m) + n.transmitCPU(m))
	n.emit(m)
	// Updated only after the packet reached the wire: a kill inside the
	// send's CPU charge means the piggyback was never witnessed.
	n.lastSendClock = n.clock
	n.step++
}

// transmitCPU is the send-side software cost of one message.
func (n *Node) transmitCPU(m *vproto.Message) sim.Time {
	return n.Stack.SendOverhead + n.Stack.PipeOverhead +
		sim.Time(int64(m.Bytes)*int64(n.Stack.CopyPerByte+n.Stack.PipePerByte))
}

// emit accounts m and puts it on the wire; the caller has already charged
// its CPU cost.
func (n *Node) emit(m *vproto.Message) {
	m.Inc = n.recoveryEpoch
	wire := m.Bytes + n.Stack.HeaderBytes + m.PiggybackBytes
	n.stats.AppBytesSent += int64(m.Bytes)
	n.stats.AppMsgsSent++
	n.stats.HeaderBytes += int64(n.Stack.HeaderBytes)
	n.stats.PiggybackBytes += int64(m.PiggybackBytes)
	n.stats.PiggybackEvents += int64(len(m.Piggyback))
	pkt := vproto.GetPacket()
	pkt.Kind = vproto.PktApp
	pkt.From = n.ep.ID()
	pkt.App = m
	n.ep.Send(int(m.Dst), wire, pkt)
}

// Recv blocks until a message matching (src, tag) is delivered and returns
// it. src may be AnySource. During replay the collected determinants
// dictate the delivery order instead.
func (n *Node) Recv(src event.Rank, tag int) *vproto.Message {
	n.maybeCheckpoint()
	if n.Skipping() {
		n.step++
		return &vproto.Message{Src: src, Dst: n.rank, Tag: tag}
	}
	for {
		n.drain()
		if i := n.match(src, tag); i >= 0 {
			m := n.recvQ[i]
			n.recvQ = append(n.recvQ[:i], n.recvQ[i+1:]...)
			n.step++
			n.Proto.OnDeliver(n, m)
			if n.RecordDeliveries {
				n.Deliveries = append(n.Deliveries, DeliveryRecord{Step: n.step, Src: m.Src, SendSeq: m.SendSeq})
			}
			return m
		}
		n.WaitPacket()
		// The daemon honours a checkpoint request while the application
		// waits, as the real daemon checkpoints the process whatever the MPI
		// call is doing: the Recv has not completed, so on restore it
		// re-executes.
		n.maybeCheckpoint()
	}
}

// match returns the index of the first queued message deliverable to a
// Recv(src, tag) call, or -1. During replay only the message the next
// collected determinant names is: the one place replay order is enforced.
func (n *Node) match(src event.Rank, tag int) int {
	if n.Replaying() {
		want := n.replayDets[n.replayIdx]
		for i, m := range n.recvQ {
			if m.Src == want.Sender && m.SendSeq == want.SendSeq {
				return i
			}
		}
		return -1
	}
	for i, m := range n.recvQ {
		if (src == AnySource || m.Src == src) && m.Tag == tag {
			return i
		}
	}
	return -1
}

// CreateDeterminant assigns the reception determinant for a just-delivered
// message: a fresh event in normal operation, or during replay the next
// collected determinant, the one match picked m by. Protocol OnDeliver
// hooks, which only Recv calls, call this exactly once per delivered
// message. The boolean reports whether the determinant is new (and should
// be shipped to the Event Logger).
func (n *Node) CreateDeterminant(m *vproto.Message) (event.Determinant, bool) {
	if n.Replaying() {
		d := n.replayDets[n.replayIdx]
		n.replayIdx++
		n.clock = d.ID.Clock
		n.lastEvent = d.ID
		if d.Lamport > n.lamport {
			n.lamport = d.Lamport
		}
		if !n.Replaying() {
			n.transition(phaseUp)
		}
		return d, false
	}
	if m.Lamport > n.lamport {
		n.lamport = m.Lamport
	}
	n.lamport++
	n.clock++
	d := event.Determinant{
		ID:      event.EventID{Creator: n.rank, Clock: n.clock},
		Sender:  m.Src,
		SendSeq: m.SendSeq,
		Parent:  m.SenderLast,
		Lamport: n.lamport,
	}
	n.lastEvent = d.ID
	n.stats.EventsCreated++
	return d, true
}

// Finish marks the program complete (used by harnesses to detect the end).
func (n *Node) Finish() { n.done = true }

// Unfinish revokes completion when a rollback-all resurrects the program
// (coordinated checkpointing): the restored global state predates the
// completion, and completion-based guards (fault targeting, AllDone) must
// see the rank as running again from the instant of the rollback, not only
// once the respawned process binds.
func (n *Node) Unfinish() { n.done = false }

// Done reports whether the program completed.
func (n *Node) Done() bool { return n.done }

// --- Packet processing ---

// drain processes every packet already delivered to this node.
func (n *Node) drain() {
	for {
		d, ok := n.ep.Inbox.TryGet()
		if !ok {
			return
		}
		n.process(d)
	}
}

// WaitPacket blocks until one more packet arrives and processes it.
func (n *Node) WaitPacket() {
	d := n.ep.Inbox.Get(n.proc)
	n.process(d)
}

func (n *Node) process(d netmodel.Delivery) {
	pkt := d.Payload.(*vproto.Packet)
	// The daemon is every packet's terminal consumer: whatever outlives
	// processing (the App message, a checkpoint image, a recovery stable
	// vector) is carried by reference and survives the shell's release.
	defer vproto.PutPacket(pkt)
	switch pkt.Kind {
	case vproto.PktApp:
		m := pkt.App
		if n.fenced(m) {
			// Fenced: the sender incarnation was superseded after a false
			// suspicion. Its packets — typically released by a healing
			// partition — must not touch the sequence trackers or reach
			// the reducers: the replacement incarnation re-creates this
			// history, possibly with different determinants under the
			// same IDs.
			n.stats.FencedStaleMsgs++
			return
		}
		if n.phase == phaseRestoring {
			n.held = append(n.held, &vproto.Packet{Kind: pkt.Kind, App: m})
			return
		}
		cpu := n.Stack.RecvOverhead + n.Stack.PipeOverhead +
			sim.Time(int64(m.Bytes)*int64(n.Stack.CopyPerByte+n.Stack.PipePerByte))
		n.ChargeCPU(cpu)
		n.enqueue(m)

	case vproto.PktMarker:
		if n.phase == phaseRestoring {
			// No state to record yet: the marker keeps its place (flushHeld).
			n.held = append(n.held, &vproto.Packet{Kind: pkt.Kind, Rank: pkt.Rank, Epoch: pkt.Epoch})
			return
		}
		n.Proto.OnControl(n, pkt)

	case vproto.PktCkptRequest:
		n.RequestCheckpoint(pkt.Epoch)

	case vproto.PktCkptAck:
		n.awaitCkptAck = false

	case vproto.PktCkptImage, vproto.PktEventQueryResp, vproto.PktDetResponse:
		n.recoveryResponse(pkt)

	case vproto.PktDetRequest:
		req := detRequestFrom(pkt)
		if n.phase == phaseRestoring {
			// Our own sender log and protocol state are not restored yet;
			// serve the peer once they are (flushHeld).
			n.heldDetReqs = append(n.heldDetReqs, req)
			return
		}
		n.serveDetRequest(req)

	case vproto.PktCkptGC:
		n.Log.TrimTo(pkt.Rank, pkt.SeqFloor)

	default:
		n.Proto.OnControl(n, pkt)
	}
}

// enqueue queues m unless it is a duplicate (replayed or rollback
// re-sent), and records it while its channel is in a cut.
func (n *Node) enqueue(m *vproto.Message) {
	if !n.seqTrack[m.Src].accept(m.SendSeq) {
		return
	}
	n.recvQ = append(n.recvQ, m)
	if n.Recording[m.Src] {
		n.RecordedMsgs = append(n.RecordedMsgs, *m)
	}
}

// serveDetRequest answers a recovering peer: held determinants of the
// requested creator (if asked) and replay of logged payloads.
func (n *Node) serveDetRequest(req detRequest) {
	requester := req.creator
	if req.wantDets {
		dets := n.Proto.HeldFor(req.creator)
		bytes := event.FactoredSize(dets) + 32
		n.ChargeCPU(sim.Time(len(dets)) * PerEventSend / 4)
		resp := vproto.GetPacket()
		resp.Kind = vproto.PktDetResponse
		resp.Determinants = dets
		resp.Incarnation = req.incarnation
		n.SendPacket(int(requester), bytes, resp)
	}
	n.replayLogged(requester, req.seqFloor)
}

// replayLogged re-sends the logged payloads sent to dst with sequence
// above seqFloor, each charged and then emitted as Send does. The log's
// view is expanded first into one fresh allocation, never recycled:
// receivers keep pointers to the messages they are delivered.
func (n *Node) replayLogged(dst event.Rank, seqFloor uint64) {
	entries := n.Log.For(dst, seqFloor)
	burst := make([]vproto.Message, len(entries))
	for i, e := range entries {
		burst[i] = e.Message(n.rank)
	}
	for i := range burst {
		n.ChargeCPU(n.transmitCPU(&burst[i]))
		n.emit(&burst[i])
	}
}

// RequestCheckpoint marks a checkpoint request to be honoured at the next
// operation boundary: the scheduler's PktCkptRequest, or a coordinated
// wave's first marker, which also snapshots at once. A later request
// overwrites the epoch.
func (n *Node) RequestCheckpoint(epoch int) {
	n.ckptRequested = true
	n.ckptEpoch = epoch
}

// checkpointDue reports whether a pending checkpoint request can be
// honoured now (never while fast-forwarding or replaying).
func (n *Node) checkpointDue() bool {
	return n.ckptRequested && !n.Skipping() && !n.Replaying() && n.CkptEndpoint >= 0
}

// maybeCheckpoint honours a pending checkpoint request at an operation
// boundary.
func (n *Node) maybeCheckpoint() {
	if n.checkpointDue() {
		n.ckptRequested = false
		n.Proto.TakeSnapshot(n)
	}
}

// CheckpointEpoch returns the epoch of the most recent checkpoint request.
func (n *Node) CheckpointEpoch() int { return n.ckptEpoch }

// BuildImage assembles a checkpoint image of the current state, including
// the protocol's contribution. One taken while fast-forwarding records the
// restored position.
func (n *Node) BuildImage() *vproto.CheckpointImage {
	im := &vproto.CheckpointImage{
		Rank:     n.rank,
		Epoch:    n.ckptEpoch,
		Step:     max(n.step, n.skipUntil),
		AppBytes: n.AppStateBytes,
		Clock:    n.clock,
		Lamport:  n.lamport,
	}
	// The per-peer floors are charged interval-coded: only peers this rank
	// ever exchanged with contribute runs, so a sparse communication pattern
	// in a wide world costs O(active peers) bytes, not O(np).
	im.SendSeqs.Reset(n.np)
	for i, s := range n.sendSeq {
		im.SendSeqs.SetMax(i, s)
	}
	im.LastSeqSeen.Reset(n.np)
	for i := range n.seqTrack {
		im.LastSeqSeen.SetMax(i, n.seqTrack[i].consumedFloor())
	}
	// Messages accepted by the daemon but not yet consumed by the
	// application are daemon state: they are inside the duplicate
	// suppression floors, so they must travel with the image or they would
	// be lost on restore.
	im.ChannelMsgs = n.recvQueueSnapshot()
	// The sender log travels too, so a restarted process can still serve
	// replay requests from before its own crash (nil when empty).
	im.LoggedPayloads = n.Log.Snapshot()
	n.Proto.Snapshot(n, im)
	return im
}

// TakeCheckpoint snapshots the process and stores the image on the
// checkpoint server, blocking until the transaction is acknowledged. This
// is the uncoordinated (message-logging) checkpoint procedure.
func (n *Node) TakeCheckpoint() {
	n.Obs.Record(n.Now(), obs.KindCkptBegin, int(n.rank), 0, "")
	im := n.BuildImage()

	n.awaitCkptAck = true
	store := vproto.GetPacket()
	store.Kind = vproto.PktCkptStore
	store.Image = im
	store.Rank = n.rank
	store.Epoch = im.Epoch
	n.SendPacket(n.CkptEndpoint, int(im.Bytes()), store)
	for n.awaitCkptAck {
		n.WaitPacket()
	}
	n.stats.Checkpoints++
	n.stats.CheckpointBytes += im.Bytes()
	n.Obs.Record(n.Now(), obs.KindCkptEnd, int(n.rank), im.Bytes(), "")

	// Sender-based log GC: peers can discard payloads this checkpoint now
	// covers. The floors must come from the image itself — messages
	// accepted while we waited for the store acknowledgment are not in the
	// image and will be needed again if we restart from it.
	for r := 0; r < n.np; r++ {
		if event.Rank(r) == n.rank {
			continue
		}
		gc := vproto.GetPacket()
		gc.Kind = vproto.PktCkptGC
		gc.Rank = n.rank
		gc.SeqFloor = im.LastSeqSeen.Get(r)
		n.SendPacket(r, 16, gc)
	}
}
