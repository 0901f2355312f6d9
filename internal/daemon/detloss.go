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
	// Incarnation is the detecting rank's recovery epoch: the victim's, or
	// for a Conflict the Detector's.
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
	// conflict in a reducer: at merge, a held determinant arrived again
	// under the same (creator, clock) with different content; at
	// emission, antecedence edges closed a cycle through a held
	// determinant. Either means the creator recovered from regressed state
	// (an earlier undetected loss) and re-created IDs. MissingFrom and
	// MissingTo bound the conflicting clock; the detecting rank is
	// recorded in Detector.
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
			"rank %d re-created determinant ID (creator %d, clock %d) with different content — regressed recovery after an undetected loss (detected by rank %d at merge or emission; concurrently dead peers %v)",
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
// under concurrent failures, so it is reported as a first-class outcome.
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
// and must not be flagged. Detection needs the deployment-wide scan
// (Witnessed).
// Stacks that create no determinants never advance lastSend past 0.
func (n *Node) unwitnessedTail(lastClock, lastSend uint64) (cut DeterminantLoss) {
	if lastSend <= lastClock {
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
// the cluster layer on every node) records the outcome and stops the
// kernel.
func (n *Node) reportDeterminantLoss(dl DeterminantLoss) {
	n.OnDeterminantLoss(dl)
	// Halt forever (until killed or the kernel stops). The quantum is far
	// beyond any experiment's virtual cap.
	const haltQuantum = sim.Time(1) << 60
	for {
		n.proc.Sleep(haltQuantum)
	}
}

// Witnessed is the deployment's loss check (Node.LossCheck): a pure scan
// of nodes (indexed by rank) and net for surviving copies of creator's
// determinants with clocks in [from, to], returned as a bitmap indexed
// clock-from. Recovery collection already covers everything peers respond
// with; this additionally sees latent copies in every other node's
// protocol state, delivered-but-unconsumed messages, held application
// packets and inbox, and on the wire, distinguishing a benign late merge
// from a genuine loss. A copy riding a packet its destination will discard
// (fenced) is lost, not latent; a delivery held on a downed link still
// counts, since a heal releases it. One linear pass per node keeps the
// probe cheap against the unbounded held sets of EL-less deployments. It
// charges no CPU and draws no randomness, so runs that complete are
// unaffected by it.
func Witnessed(nodes []*Node, net *netmodel.Network, creator event.Rank, from, to uint64) []bool {
	out := make([]bool, to-from+1)
	markPB := func(pb []event.Determinant) {
		for _, d := range pb {
			if d.ID.Creator == creator && d.ID.Clock >= from && d.ID.Clock <= to {
				out[d.ID.Clock-from] = true
			}
		}
	}
	// markApp asks the packet's destination, the daemon that applies the
	// fence on arrival.
	markApp := func(d netmodel.Delivery) bool {
		if pkt, ok := d.Payload.(*vproto.Packet); ok && pkt.Kind == vproto.PktApp && !nodes[pkt.App.Dst].fenced(pkt.App) {
			markPB(pkt.App.Piggyback)
		}
		return true
	}
	for _, n := range nodes {
		if n.rank == creator {
			continue
		}
		markPB(n.Proto.HeldFor(creator))
		for _, m := range n.recvQ {
			markPB(m.Piggyback)
		}
		for _, m := range n.heldApp {
			if !n.fenced(m) {
				markPB(m.Piggyback)
			}
		}
		n.ep.Inbox.Range(markApp)
	}
	net.RangeInFlight(markApp)
	return out
}

// ReportDeterminantIDConflict classifies a determinant-ID conflict a
// reducer latched at merge or emission (causal.Reducer.TakeIDConflict):
// det's (creator, clock) was re-created, which only a creator that
// recovered from regressed state after an undetected determinant loss
// does. The conflict is the loss's downstream signature, so it is reported
// through the standard determinant-loss outcome and halts the detecting
// incarnation, exactly like a first-hand loss.
func (n *Node) ReportDeterminantIDConflict(det event.Determinant) {
	n.reportDeterminantLoss(DeterminantLoss{
		Victim:      det.ID.Creator,
		Detector:    n.rank,
		Incarnation: n.recoveryEpoch,
		MissingFrom: det.ID.Clock,
		MissingTo:   det.ID.Clock,
		Lost:        1,
		Conflict:    true,
	})
}
