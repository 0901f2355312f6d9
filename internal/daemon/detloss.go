package daemon

import (
	"cmp"
	"fmt"
	"slices"

	"mpichv/internal/event"
	"mpichv/internal/netmodel"
	"mpichv/internal/sim"
	"mpichv/internal/vproto"
)

// DeterminantLoss describes a recovery that could not reassemble its replay
// set: determinants the dead incarnation had created — and that some peer
// had witnessed, so surviving executions may depend on them — are no longer
// held anywhere in the deployment. This is the paper's known limitation of
// causal message logging without an Event Logger: under concurrent
// failures, determinants held only by crashed peers are lost when those
// peers restore regressed state. It is a *result* of the protocol
// configuration under the fault scenario, not a simulator defect, and is
// reported as a first-class recovery outcome.
type DeterminantLoss struct {
	// Victim is the recovering rank whose replay set is incomplete.
	Victim event.Rank `json:"victim"`
	// Incarnation is the victim's recovery epoch at detection.
	Incarnation int `json:"incarnation"`
	// BaseClock is the event clock of the restored checkpoint image
	// (replay was supposed to cover clocks BaseClock+1 onward).
	BaseClock uint64 `json:"base_clock"`
	// PrevClock is the event clock the dead incarnation had reached when
	// it was killed.
	PrevClock uint64 `json:"prev_clock"`
	// LastSendClock is the highest clock a peer witnessed through one of
	// the dead incarnation's sends; determinants at or below it were
	// piggybacked on the wire and must be recoverable.
	LastSendClock uint64 `json:"last_send_clock"`
	// MissingFrom and MissingTo bound the lost clock range.
	MissingFrom uint64 `json:"missing_from"`
	MissingTo   uint64 `json:"missing_to"`
	// Lost counts the lost clocks inside [MissingFrom, MissingTo].
	Lost int `json:"lost"`
	// Gap is true when the loss is a hole inside the collected replay set
	// (an invariant breach: later determinants exist without their
	// antecedents), false when it is an unwitnessed truncation of the
	// replay tail below LastSendClock.
	Gap bool `json:"gap"`
	// Conflict is true when the loss was detected as a determinant-ID
	// conflict at antecedence-graph merge time: a survivor held a
	// determinant under the same (creator, clock) with different content,
	// which means the creator recovered from regressed state (an earlier
	// undetected loss) and re-created IDs. MissingFrom/MissingTo bound the
	// conflicting clock; the detecting rank is recorded in Detector.
	Conflict bool `json:"conflict,omitempty"`
	// Detector is the rank that observed a Conflict (the victim itself for
	// the gap and truncation forms).
	Detector event.Rank `json:"detector,omitempty"`
	// DeadPeers are the ranks whose death or recovery overlapped the
	// victim's failure — the candidates that held the only copies. Filled
	// by the cluster layer, which can see the whole deployment.
	DeadPeers []event.Rank `json:"dead_peers,omitempty"`
	// At is the virtual detection time (filled by the cluster layer).
	At sim.Time `json:"at_ns"`
}

func (dl DeterminantLoss) String() string {
	if dl.Conflict {
		return fmt.Sprintf(
			"rank %d re-created determinant ID (creator %d, clock %d) with different content — regressed recovery after an undetected loss (detected by rank %d at merge; concurrently dead peers %v)",
			dl.Victim, dl.Victim, dl.MissingFrom, dl.Detector, dl.DeadPeers)
	}
	form := "truncated"
	if dl.Gap {
		form = "gap"
	}
	return fmt.Sprintf(
		"rank %d incarnation %d lost %d determinant(s), clocks [%d,%d] (%s; base %d, died at %d, last send witnessed %d; concurrently dead peers %v)",
		dl.Victim, dl.Incarnation, dl.Lost, dl.MissingFrom, dl.MissingTo,
		form, dl.BaseClock, dl.PrevClock, dl.LastSendClock, dl.DeadPeers)
}

// assembleReplay turns the determinants collected for creator's recovery
// into the deduplicated, ordered set to integrate (all, reusing collected's
// storage) and the replay set appended to replay: creator's own
// determinants above the restored checkpoint's clock base, in clock order.
// Responses from different peers overlap and interleave, and the reducers
// require per-creator ascending clock order, so the collection is sorted
// stably and the first-arrived copy of each ID kept.
//
// The replay set must be gapless: a hole (returned as the range and count of
// a Gap loss) means later determinants survived without their antecedents —
// every copy of the missing ones died with crashed peers. That is not a
// simulator bug but the paper's known limitation of EL-less causal logging
// under concurrent failures, so it is reported as a first-class outcome (or,
// without a handler, the legacy panic).
func assembleReplay(collected, replay []event.Determinant, creator event.Rank, base uint64) (all, own []event.Determinant, gap DeterminantLoss) {
	slices.SortStableFunc(collected, func(a, b event.Determinant) int {
		return cmp.Or(cmp.Compare(a.ID.Creator, b.ID.Creator), cmp.Compare(a.ID.Clock, b.ID.Clock))
	})
	all = slices.CompactFunc(collected, func(a, b event.Determinant) bool { return a.ID == b.ID })
	last := base
	for _, d := range all {
		if d.ID.Creator != creator || d.ID.Clock <= base {
			continue
		}
		if want := last + 1; d.ID.Clock != want {
			if gap.Lost == 0 {
				gap.MissingFrom = want
			}
			gap.MissingTo = d.ID.Clock - 1
			gap.Lost += int(d.ID.Clock - want)
			gap.Gap = true
		}
		last = d.ID.Clock
		replay = append(replay, d)
	}
	return all, replay, gap
}

// unwitnessedTail is the truncation form of determinant loss: the dead
// incarnation's sends witnessed determinants up to lastSend, yet the
// reassembled replay set stops at lastClock. Each missing clock that no
// survivor still witnesses (protocol state, queued piggybacks) is lost —
// held only by peers that crashed and restored regressed state. A clock
// some survivor does witness is merely latent (it reaches the reducers
// through normal piggyback flow), which is the benign single-failure case
// and must not be flagged. Detection needs the cluster's omniscient scan.
// Stacks that create no determinants never advance lastSend past 0.
func (n *Node) unwitnessedTail(lastClock, lastSend uint64) (cut DeterminantLoss) {
	if n.LossCheck == nil || lastSend <= lastClock {
		return cut
	}
	for i, w := range n.LossCheck(n.rank, lastClock+1, lastSend) {
		if w {
			continue
		}
		clk := lastClock + 1 + uint64(i)
		if cut.Lost == 0 {
			cut.MissingFrom = clk
		}
		cut.MissingTo = clk
		cut.Lost++
	}
	return cut
}

// reportDeterminantLoss hands loss diagnostics to the deployment's handler
// and halts the incarnation: its replay set is incomplete, so resuming the
// program would either violate replay invariants or silently re-execute a
// history that surviving peers already depend on. The handler (installed by
// the cluster layer) records the outcome and normally stops the kernel.
// Without a handler the legacy behaviour — a loud panic — is preserved for
// bare-daemon deployments.
func (n *Node) reportDeterminantLoss(dl DeterminantLoss) {
	if n.OnDeterminantLoss == nil {
		panic(fmt.Sprintf("daemon: recovery hole: %v", dl))
	}
	n.OnDeterminantLoss(dl)
	// Halt forever (until killed or the kernel stops). The quantum is far
	// beyond any experiment's virtual cap.
	const haltQuantum = sim.Time(1) << 60
	for {
		n.proc.Sleep(haltQuantum)
	}
}

// MarkWitnessedDeterminants calls mark(clock) for every determinant of
// creator with clock in [from, to] that any volatile state of this node
// still witnesses: the protocol's held set, the piggyback of a
// delivered-but-unconsumed message, a held application packet, or an inbox
// packet not yet accepted. Packets from a fenced sender incarnation do not
// count: they will be discarded at acceptance, so a copy riding one is
// lost, not latent. The cluster's loss check scans survivors with it — one
// linear pass per node, so a recovery probing a wide missing range stays
// cheap even against the unbounded held sets of EL-less deployments. The
// scan is a pure read: it charges no CPU and draws no randomness, so runs
// that complete are unaffected by it.
func (n *Node) MarkWitnessedDeterminants(creator event.Rank, from, to uint64, mark func(uint64)) {
	markPB := func(pb []event.Determinant) {
		for _, d := range pb {
			if d.ID.Creator == creator && d.ID.Clock >= from && d.ID.Clock <= to {
				mark(d.ID.Clock)
			}
		}
	}
	markPB(n.Proto.HeldFor(creator))
	for _, m := range n.recvQ {
		markPB(m.Piggyback)
	}
	for _, m := range n.heldApp {
		if m.Inc < n.peerEpoch[m.Src] {
			continue // fenced at flush time, never merged
		}
		markPB(m.Piggyback)
	}
	n.ep.Inbox.Range(func(d netmodel.Delivery) bool {
		if src, inc, ok := AppIncarnation(d); ok && inc < n.peerEpoch[src] {
			return true // fenced at acceptance, never merged
		}
		MarkWitnessedInDelivery(d, creator, from, to, mark)
		return true
	})
}

// AppIncarnation extracts the sender rank and incarnation of the
// application packet carried by a delivery (ok is false for control
// packets). The cluster's witness scan uses it to skip in-flight traffic
// from fenced incarnations.
func AppIncarnation(d netmodel.Delivery) (src event.Rank, inc int, ok bool) {
	pkt, isPkt := d.Payload.(*vproto.Packet)
	if !isPkt || pkt.Kind != vproto.PktApp {
		return 0, 0, false
	}
	return pkt.App.Src, pkt.App.Inc, true
}

// ReportDeterminantIDConflict classifies a determinant-ID conflict found at
// antecedence-graph merge time — a survivor already held existing under the
// same (creator, clock) as incoming with different content. Only a creator
// that recovered from regressed state after an undetected determinant loss
// re-creates IDs, so the conflict is the loss's downstream signature; it is
// reported through the standard determinant-loss outcome (and halts the
// detecting incarnation, exactly like a first-hand loss) instead of the
// antecedence-cycle abort it would otherwise grow into.
func (n *Node) ReportDeterminantIDConflict(existing, incoming event.Determinant) {
	n.reportDeterminantLoss(DeterminantLoss{
		Victim:      existing.ID.Creator,
		Detector:    n.rank,
		Incarnation: n.recoveryEpoch,
		MissingFrom: existing.ID.Clock,
		MissingTo:   existing.ID.Clock,
		Lost:        1,
		Conflict:    true,
	})
}

// MarkWitnessedInDelivery applies the witness scan to one network
// delivery: if it carries an application packet, every piggybacked
// determinant of creator with clock in [from, to] is reported to mark.
// The cluster layer also runs it over in-flight traffic
// (netmodel.RangeInFlight) — a piggyback copy that exists only on the
// wire still reaches a live peer, so it is latent, not lost.
func MarkWitnessedInDelivery(d netmodel.Delivery, creator event.Rank, from, to uint64, mark func(uint64)) {
	pkt, ok := d.Payload.(*vproto.Packet)
	if !ok || pkt.Kind != vproto.PktApp {
		return
	}
	for _, det := range pkt.App.Piggyback {
		if det.ID.Creator == creator && det.ID.Clock >= from && det.ID.Clock <= to {
			mark(det.ID.Clock)
		}
	}
}
