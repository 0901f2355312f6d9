package daemon

import (
	"fmt"

	"mpichv/internal/event"
	"mpichv/internal/obs"
	"mpichv/internal/vproto"
)

// phase is where a node stands in the paper's recovery procedure (Fig. 10):
// restart from the checkpoint image, collect determinants, replay.
type phase uint8

const (
	phaseUp phase = iota // free execution
	// phaseRestoring: the incarnation is fresh and the checkpoint image is
	// being fetched. Application packets and markers are buffered in held
	// until the image (and with it the duplicate-suppression floors) is
	// restored — accepting them earlier would corrupt the trackers.
	phaseRestoring
	phaseCollecting // state restored; collecting determinants, assembling the replay set
	phaseReplaying  // deliveries conform to the collected determinants
	phaseCount
)

// phaseEdges[from][to] is the whole legal-transition table: the recovery
// procedure in order, a shortcut to up where a step has nothing to do (a
// coordinated rollback collects nothing, an empty replay set replays
// nothing), and restoring from anywhere — a new incarnation starts over
// from wherever the dead one stood.
var phaseEdges = [phaseCount][phaseCount]bool{
	phaseUp:         {phaseRestoring: true},
	phaseRestoring:  {phaseRestoring: true, phaseCollecting: true, phaseUp: true},
	phaseCollecting: {phaseRestoring: true, phaseReplaying: true, phaseUp: true},
	phaseReplaying:  {phaseRestoring: true, phaseUp: true},
}

// transition is the only writer of the recovery phase, and of everything
// that must move in step with it: the incarnation epoch (bumped on entry to
// restoring), the recovery probes and the timeline's phase events. An
// edge outside phaseEdges is a bug and panics.
func (n *Node) transition(to phase) {
	from := n.phase
	if !phaseEdges[from][to] {
		panic(fmt.Sprintf("daemon: rank %d: illegal recovery phase transition %d → %d", n.rank, from, to))
	}
	now, rank := n.Now(), int(n.rank)
	if to == phaseRestoring {
		// Whatever the dead incarnation was in the middle of is abandoned:
		// no end event, no probe time for its unfinished phase.
		n.recoveryEpoch++
		n.recoveryStart = now
		if n.charged {
			n.stats.Recoveries++
		}
		n.Obs.Record(now, obs.KindRecoveryBegin, rank, 0, "")
		n.Obs.Record(now, obs.KindRestoreBegin, rank, 0, "")
	} else if from == phaseRestoring {
		n.Obs.Record(now, obs.KindRestoreEnd, rank, 0, "")
	}
	switch to {
	case phaseReplaying:
		n.Obs.Record(now, obs.KindReplayBegin, rank, int64(len(n.replayDets)), "")
	case phaseUp:
		if n.charged {
			n.stats.RecoveryTotal += now - n.recoveryStart
		}
		n.Obs.Record(now, obs.KindRecoveryEnd, rank, 0, "")
	}
	n.phase = to
}

// restore opens a new incarnation: it replaces the dead one's volatile
// state, enters phaseRestoring, fetches and restores the checkpoint image
// fetchEpoch selects, and flushes what was held meanwhile. charged is false
// for a coordinated-rollback peer: its restart is not a recovery of its own.
func (n *Node) restore(fetchEpoch int, charged bool) *vproto.CheckpointImage {
	n.incarnation = incarnation{
		charged:  charged,
		seqTrack: n.seqTrack, sendSeq: n.sendSeq,
		replayDets: n.replayDets[:0], collectedDets: n.collectedDets[:0],
		Log: new(SenderLog),
	}
	n.transition(phaseRestoring)
	n.drainForRecovery()

	fetch := vproto.GetPacket()
	fetch.Kind = vproto.PktCkptFetch
	fetch.Rank = n.rank
	fetch.Epoch = fetchEpoch
	fetch.Incarnation = n.recoveryEpoch
	n.SendPacket(n.CkptEndpoint, 32, fetch)
	for n.pendingImage == nil {
		n.WaitPacket()
	}
	im := n.pendingImage
	n.pendingImage = nil
	n.restoreImage(im)
	n.flushHeld()
	return im
}

// recoveryResponse handles the three responses a recovering incarnation
// waits for, dropping any addressed to a dead incarnation.
func (n *Node) recoveryResponse(pkt *vproto.Packet) {
	if pkt.Incarnation != n.recoveryEpoch {
		return
	}
	switch pkt.Kind {
	case vproto.PktCkptImage:
		n.pendingImage = pkt.Image
		if n.pendingImage == nil {
			// None stored yet. A zero-valued image works as-is: its zero
			// floor vectors read as all-zero without allocating.
			n.pendingImage = &vproto.CheckpointImage{Rank: n.rank}
		}
	case vproto.PktEventQueryResp:
		n.collectedStab = pkt.StableVec
		fallthrough
	case vproto.PktDetResponse:
		n.collectedDets = append(n.collectedDets, pkt.Determinants...)
		n.detRespsWanted--
	}
}

// PrepareRecovery replaces the volatile state at the start of a restarted
// incarnation, restores the checkpoint image, collects determinants (from
// the Event Logger if deployed, otherwise from every surviving peer),
// requests payload replay and installs the replay set. It must be called
// before the application program runs.
func (n *Node) PrepareRecovery() {
	// The dead incarnation's watermarks, read before restore replaces it:
	// how far its event clock ran, and the highest clock a peer witnessed
	// through one of its sends. The determinant-loss detector compares the
	// reassembled replay set against them.
	prevClock, prevLastSend := n.clock, n.lastSendClock

	im := n.restore(vproto.FetchLatest, true)
	n.transition(phaseCollecting)

	// A fenced predecessor (false suspicion) may have sent into a
	// partitioned link: those packets are discarded by the peers' fence,
	// and the steps that produced them are fast-forwarded, so nothing
	// would ever re-send them. Re-transmit the restored sender log —
	// receivers' duplicate suppression absorbs everything they already
	// consumed, and the fenced gap is filled with payloads that carry this
	// incarnation's epoch.
	if n.fencedRestart {
		n.fencedRestart = false
		for r := 0; r < n.np; r++ {
			if event.Rank(r) != n.rank {
				n.replayLogged(event.Rank(r), 0)
			}
		}
	}

	n.collectDeterminants()
	// With an Event Logger the determinants came from it; payload replay
	// still comes from the senders' logs.
	if n.ELEndpoint >= 0 {
		n.requestFromPeers(false)
	}

	// Install the replay set; feed everything collected to the protocol so
	// future piggybacks stay complete.
	var loss DeterminantLoss
	n.collectedDets, n.replayDets, loss = assembleReplay(n.collectedDets, n.replayDets[:0], n.rank, im.Clock)
	if loss.Lost == 0 {
		lastClock := im.Clock
		if len(n.replayDets) > 0 {
			lastClock = n.replayDets[len(n.replayDets)-1].ID.Clock
		}
		loss = n.unwitnessedTail(lastClock, prevLastSend)
	}
	if loss.Lost > 0 {
		loss.Victim, loss.Incarnation = n.rank, n.recoveryEpoch
		loss.BaseClock, loss.PrevClock, loss.LastSendClock = im.Clock, prevClock, prevLastSend
		n.reportDeterminantLoss(loss)
	}
	n.Proto.Integrate(n, n.collectedDets, n.collectedStab)
	n.collectedDets = n.collectedDets[:0]
	if n.Replaying() {
		n.transition(phaseReplaying)
	} else {
		n.transition(phaseUp)
	}
}

// collectDeterminants requests the determinants to replay and blocks until
// every response is in — the timed window of the paper's Figure 10. It is
// narrower than phaseCollecting (a fenced restart's re-send precedes it, a
// determinant-loss report may follow it), so it stamps its own events.
func (n *Node) collectDeterminants() {
	start := n.Now()
	n.Obs.Record(start, obs.KindCollectBegin, int(n.rank), 0, "")
	n.collectedDets = n.collectedDets[:0]
	n.collectedStab = nil
	if n.ELEndpoint >= 0 {
		n.detRespsWanted = 1
		q := vproto.GetPacket()
		q.Kind = vproto.PktEventQuery
		q.Creator = n.rank
		q.Incarnation = n.recoveryEpoch
		n.SendPacket(n.ELEndpoint, 32, q)
	} else {
		n.detRespsWanted = n.np - 1
		n.requestFromPeers(true)
	}
	for n.detRespsWanted > 0 {
		n.WaitPacket()
	}
	n.stats.RecoveryEventCollection += n.Now() - start
	n.Obs.Record(n.Now(), obs.KindCollectEnd, int(n.rank), 0, "")
}

// requestFromPeers asks every peer to replay its logged payloads above the
// restored consumption floors and, with wantDets, to return the
// determinants of this rank it holds.
func (n *Node) requestFromPeers(wantDets bool) {
	for r := 0; r < n.np; r++ {
		if event.Rank(r) == n.rank {
			continue
		}
		req := vproto.GetPacket()
		req.Kind = vproto.PktDetRequest
		req.Creator = n.rank
		req.WantDets = wantDets
		req.SeqFloor = n.seqTrack[r].consumedFloor()
		req.Incarnation = n.recoveryEpoch
		n.SendPacket(r, 32, req)
	}
}

// PrepareRollback resets the node to its latest consistent-wave checkpoint
// (coordinated checkpointing: every process rolls back on any failure).
// crashed marks the node whose failure triggered the rollback. Every rank
// restarts together, so a peer's packet from below this node's next
// incarnation was sent by the dead run: accepted, it would be an orphan.
func (n *Node) PrepareRollback(crashed bool) {
	for r := range n.np {
		n.FenceIncarnation(event.Rank(r), n.NextIncarnation())
	}
	n.restore(vproto.FetchLatestWave, crashed)
	n.transition(phaseUp)
}

// drainForRecovery empties the inbox at the start of a recovery. In-flight
// packets addressed to the dead incarnation are released (anything that
// matters is covered by replay), but PktDetRequest service requests are
// addressed to the daemon, not the incarnation: a concurrently recovering
// peer sent them exactly once, so dropping them would strand that peer's
// recovery. They are held and served after this node's own state is
// restored.
func (n *Node) drainForRecovery() {
	for {
		d, ok := n.ep.Inbox.TryGet()
		if !ok {
			return
		}
		pkt := d.Payload.(*vproto.Packet)
		if pkt.Kind == vproto.PktDetRequest {
			n.heldDetReqs = append(n.heldDetReqs, detRequestFrom(pkt))
		}
		vproto.PutPacket(pkt)
	}
}

// flushHeld replays, in arrival order, the packets held during the image
// fetch now that the duplicate-suppression floors are authoritative —
// messages re-run acceptance, markers reach the protocol — and serves the
// det requests of concurrently recovering peers from the restored state.
func (n *Node) flushHeld() {
	held := n.held
	n.held = nil
	for _, pkt := range held {
		switch {
		case pkt.Kind == vproto.PktMarker:
			n.Proto.OnControl(n, pkt)
		case n.fenced(pkt.App):
			n.stats.FencedStaleMsgs++ // fenced while held (see process PktApp)
		default:
			n.enqueue(pkt.App)
		}
	}
	// Served one at a time, popping before the serve: serveDetRequest
	// charges CPU and transmits (virtual time passes), so a kill can land
	// mid-flush — the unserved remainder must survive into the next
	// incarnation, which flushes it after its own restore, or the peers
	// that sent them would wait forever.
	for len(n.heldDetReqs) > 0 {
		req := n.heldDetReqs[0]
		n.heldDetReqs = n.heldDetReqs[1:]
		n.serveDetRequest(req)
	}
}

// restoreImage installs a checkpoint image over restore's fresh incarnation.
func (n *Node) restoreImage(im *vproto.CheckpointImage) {
	n.skipUntil = im.Step
	n.clock = im.Clock
	im.SendSeqs.FillDense(n.sendSeq)
	n.lamport = im.Lamport
	if im.Clock > 0 {
		n.lastEvent = event.EventID{Creator: n.rank, Clock: im.Clock}
	}
	for i := range n.seqTrack {
		n.seqTrack[i].reset(im.LastSeqSeen.Get(i))
	}
	n.Log.Restore(im.LoggedPayloads)
	n.Proto.Restore(n, im)
	// Re-inject the image's channel state: daemon-buffered messages (inside
	// the floors) and Chandy-Lamport recorded in-transit messages (above
	// them). Both are authoritative — append unconditionally, only marking
	// the trackers so later stale copies are recognized as duplicates.
	// Piggybacks are deep-copied: delivery hands the buffer to the
	// piggyback free list, and the image (which may serve further restarts)
	// must not alias recycled memory.
	for i := range im.ChannelMsgs {
		m := im.ChannelMsgs[i]
		if len(m.Piggyback) > 0 {
			m.Piggyback = append([]event.Determinant(nil), m.Piggyback...)
		}
		n.seqTrack[m.Src].accept(m.SendSeq)
		n.recvQ = append(n.recvQ, &m)
	}
}
