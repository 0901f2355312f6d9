package causal

import (
	"math/rand"
	"testing"

	"mpichv/internal/event"
)

// driver runs one reducer per simulated process over a random exchange
// pattern while independently tracking ground-truth causality (vector
// clocks per process). It checks the fundamental invariants that make
// causal-logging recovery possible.
type driver struct {
	t    *testing.T
	name string
	np   int
	rs   []Reducer

	clock   []uint64   // events created per process
	sendSeq []uint64   // messages sent per process
	lamport []uint64   // Lamport clock per process
	trueVC  [][]uint64 // ground-truth causal knowledge per process
	lastEvt []event.EventID
	stable  []uint64

	// sentPair[i*np+j] records event ids piggybacked from i to j, to verify
	// the never-twice rule.
	sentPair []map[event.EventID]bool
	// history records every determinant ever created, for completeness
	// checks.
	history map[event.EventID]event.Determinant
	// depthOf is ground-truth antecedence depth, for LogOn order checks.
	vcAt map[event.EventID][]uint64
}

func newDriver(t *testing.T, name string, np int) *driver {
	d := &driver{
		t: t, name: name, np: np,
		rs:       make([]Reducer, np),
		clock:    make([]uint64, np),
		sendSeq:  make([]uint64, np),
		lamport:  make([]uint64, np),
		trueVC:   make([][]uint64, np),
		lastEvt:  make([]event.EventID, np),
		stable:   make([]uint64, np),
		sentPair: make([]map[event.EventID]bool, np*np),
		history:  make(map[event.EventID]event.Determinant),
		vcAt:     make(map[event.EventID][]uint64),
	}
	for i := 0; i < np; i++ {
		d.rs[i] = New(name, event.Rank(i), np)
		d.trueVC[i] = make([]uint64, np)
	}
	for i := range d.sentPair {
		d.sentPair[i] = make(map[event.EventID]bool)
	}
	return d
}

// send delivers one message from src to dst, exercising the full protocol
// path, and checks per-message invariants.
func (d *driver) send(src, dst int) {
	t := d.t
	pb, _ := d.rs[src].AppendPiggybackFor(event.Rank(dst), nil)

	// Invariant: no event is ever piggybacked twice between the same pair,
	// no stable event is piggybacked and no event of dst is sent to dst.
	pair := d.sentPair[src*d.np+dst]
	for _, e := range pb {
		if pair[e.ID] {
			t.Fatalf("%s: event %v piggybacked twice from %d to %d", d.name, e.ID, src, dst)
		}
		pair[e.ID] = true
		if e.ID.Clock <= d.stable[e.ID.Creator] {
			t.Fatalf("%s: stable event %v piggybacked", d.name, e.ID)
		}
		if e.ID.Creator == event.Rank(dst) {
			t.Fatalf("%s: event %v piggybacked to its own creator", d.name, e.ID)
		}
	}

	// LogOn order invariant: for i<j, pb[j] must not be in the causal past
	// of pb[i] (ground truth vector clocks decide).
	if d.name == "logon" {
		for i := 0; i < len(pb); i++ {
			vci := d.vcAt[pb[i].ID]
			for j := i + 1; j < len(pb); j++ {
				ej := pb[j].ID
				if vci[ej.Creator] >= ej.Clock {
					t.Fatalf("%s: piggyback order violates partial order: %v at %d precedes its ancestor %v at %d",
						d.name, pb[i].ID, i, ej, j)
				}
			}
		}
	}

	d.sendSeq[src]++
	sendVC := append([]uint64(nil), d.trueVC[src]...)

	// Deliver: merge piggyback then create the reception determinant.
	d.rs[dst].Merge(event.Rank(src), pb)
	d.clock[dst]++
	if d.lamport[src] > d.lamport[dst] {
		d.lamport[dst] = d.lamport[src]
	}
	d.lamport[dst]++
	det := event.Determinant{
		ID:      event.EventID{Creator: event.Rank(dst), Clock: d.clock[dst]},
		Sender:  event.Rank(src),
		SendSeq: d.sendSeq[src],
		Parent:  d.lastEvt[src],
		Lamport: d.lamport[dst],
	}
	d.rs[dst].AddLocal(det)
	d.lastEvt[dst] = det.ID
	d.history[det.ID] = det

	// Ground truth: dst's knowledge absorbs src's knowledge at send time.
	for c := 0; c < d.np; c++ {
		if sendVC[c] > d.trueVC[dst][c] {
			d.trueVC[dst][c] = sendVC[c]
		}
	}
	d.trueVC[dst][dst] = d.clock[dst]
	d.vcAt[det.ID] = append([]uint64(nil), d.trueVC[dst]...)
}

// ackStable simulates an Event Logger acknowledgment covering a random
// prefix of each creator's events, broadcast to every process.
func (d *driver) ackStable(r *rand.Rand) {
	vec := make([]uint64, d.np)
	for c := 0; c < d.np; c++ {
		if d.clock[c] == 0 {
			continue
		}
		vec[c] = d.stable[c] + uint64(r.Int63n(int64(d.clock[c]-d.stable[c]+1)))
		d.stable[c] = vec[c]
	}
	for i := 0; i < d.np; i++ {
		d.rs[i].Stable(stableVec(vec...))
	}
}

// checkCompleteness verifies the recovery invariant: every determinant in a
// process's causal past is either stable (safe at the Event Logger) or held
// by that process. Without this property a crash could lose a determinant
// some survivor's state depends on.
func (d *driver) checkCompleteness() {
	for i := 0; i < d.np; i++ {
		held := make(map[event.EventID]bool)
		for _, det := range d.rs[i].All() {
			held[det.ID] = true
		}
		for c := 0; c < d.np; c++ {
			for clk := d.stable[c] + 1; clk <= d.trueVC[i][c]; clk++ {
				id := event.EventID{Creator: event.Rank(c), Clock: clk}
				if !held[id] {
					d.t.Fatalf("%s: process %d causally depends on %v but neither holds it nor is it stable",
						d.name, i, id)
				}
			}
		}
	}
}

func runRandomExchanges(t *testing.T, name string, np, msgs int, ackEvery int, seed int64) {
	r := rand.New(rand.NewSource(seed))
	d := newDriver(t, name, np)
	for m := 0; m < msgs; m++ {
		src := r.Intn(np)
		dst := r.Intn(np - 1)
		if dst >= src {
			dst++
		}
		d.send(src, dst)
		if ackEvery > 0 && m%ackEvery == ackEvery-1 {
			d.ackStable(r)
		}
		if m%25 == 24 {
			d.checkCompleteness()
		}
	}
	d.checkCompleteness()
}

func TestPropertyCompletenessWithoutEL(t *testing.T) {
	for _, name := range Names() {
		for seed := int64(1); seed <= 4; seed++ {
			runRandomExchanges(t, name, 5, 300, 0, seed)
		}
	}
}

func TestPropertyCompletenessWithEL(t *testing.T) {
	for _, name := range Names() {
		for seed := int64(1); seed <= 4; seed++ {
			runRandomExchanges(t, name, 5, 300, 7, seed)
		}
	}
}

func TestPropertyLargerWorld(t *testing.T) {
	if testing.Short() {
		t.Skip("long property test")
	}
	for _, name := range Names() {
		runRandomExchanges(t, name, 12, 1500, 11, 99)
	}
}

// TestPropertyGraphNeverBeatsGroundTruth checks the safety side of the
// antecedence inference: graph protocols may only *under*-estimate a
// destination's knowledge. We verify it indirectly: a graph protocol's
// piggyback must be a subset of Vcausal's for an identical exchange history
// (Vcausal assumes the least knowledge), and both must cover everything dst
// truly lacks.
func TestPropertyGraphSubsetOfVcausal(t *testing.T) {
	const np, msgs = 5, 250
	for seed := int64(1); seed <= 3; seed++ {
		r := rand.New(rand.NewSource(seed))
		dv := newDriver(t, "vcausal", np)
		dm := newDriver(t, "manetho", np)
		for m := 0; m < msgs; m++ {
			src := r.Intn(np)
			dst := r.Intn(np - 1)
			if dst >= src {
				dst++
			}
			pbV, _ := dv.rs[src].AppendPiggybackFor(event.Rank(dst), nil)
			pbM, _ := dm.rs[src].AppendPiggybackFor(event.Rank(dst), nil)
			setV := make(map[event.EventID]bool, len(pbV))
			for _, e := range pbV {
				setV[e.ID] = true
			}
			// Every event Manetho emits, Vcausal emits too — except events
			// Vcausal already pushed to dst on an earlier message that, in
			// Manetho's view, did not yet require them. Filter those by
			// consulting Vcausal's pair history.
			for _, e := range pbM {
				if !setV[e.ID] && !dv.sentPair[src*np+dst][e.ID] {
					t.Fatalf("seed %d: manetho emitted %v which vcausal never sent from %d to %d",
						seed, e.ID, src, dst)
				}
			}
			// Drive both worlds identically (bypass driver.send's own
			// AppendPiggybackFor by replaying its bookkeeping).
			for _, d := range []*driver{dv, dm} {
				pb := pbV
				if d == dm {
					pb = pbM
				}
				for _, e := range pb {
					d.sentPair[src*np+dst][e.ID] = true
				}
				d.sendSeq[src]++
				sendVC := append([]uint64(nil), d.trueVC[src]...)
				d.rs[dst].Merge(event.Rank(src), pb)
				d.clock[dst]++
				if d.lamport[src] > d.lamport[dst] {
					d.lamport[dst] = d.lamport[src]
				}
				d.lamport[dst]++
				det := event.Determinant{
					ID:      event.EventID{Creator: event.Rank(dst), Clock: d.clock[dst]},
					Sender:  event.Rank(src),
					SendSeq: d.sendSeq[src],
					Parent:  d.lastEvt[src],
					Lamport: d.lamport[dst],
				}
				d.rs[dst].AddLocal(det)
				d.lastEvt[dst] = det.ID
				for c := 0; c < np; c++ {
					if sendVC[c] > d.trueVC[dst][c] {
						d.trueVC[dst][c] = sendVC[c]
					}
				}
				d.trueVC[dst][dst] = d.clock[dst]
			}
		}
		dv.checkCompleteness()
		dm.checkCompleteness()
	}
}

// TestPropertyPiggybackVolumeOrdering checks the paper's Figure 7 shape at
// the protocol level: over a random run without an Event Logger, Vcausal
// piggybacks at least as many events as Manetho, and LogOn's byte volume
// exceeds Manetho's (flat vs factored encoding of a same-size set).
func TestPropertyPiggybackVolumeOrdering(t *testing.T) {
	const np, msgs = 6, 400
	var events [3]int64
	var bytes [3]int64
	for idx, name := range Names() {
		r := rand.New(rand.NewSource(1234))
		d := newDriver(t, name, np)
		for m := 0; m < msgs; m++ {
			src := r.Intn(np)
			dst := r.Intn(np - 1)
			if dst >= src {
				dst++
			}
			pb, _ := d.rs[src].AppendPiggybackFor(event.Rank(dst), nil)
			events[idx] += int64(len(pb))
			bytes[idx] += int64(d.rs[src].PiggybackBytes(pb))
			// Bypass the duplicate bookkeeping of driver.send: replay merge
			// and local event manually for identical traffic.
			d.sendSeq[src]++
			d.rs[dst].Merge(event.Rank(src), pb)
			d.clock[dst]++
			if d.lamport[src] > d.lamport[dst] {
				d.lamport[dst] = d.lamport[src]
			}
			d.lamport[dst]++
			det := event.Determinant{
				ID:      event.EventID{Creator: event.Rank(dst), Clock: d.clock[dst]},
				Sender:  event.Rank(src),
				SendSeq: d.sendSeq[src],
				Parent:  d.lastEvt[src],
				Lamport: d.lamport[dst],
			}
			d.rs[dst].AddLocal(det)
			d.lastEvt[dst] = det.ID
		}
	}
	vc, man, lg := 0, 1, 2
	if events[vc] < events[man] || events[vc] < events[lg] {
		t.Errorf("event volume: vcausal=%d should dominate manetho=%d and logon=%d",
			events[vc], events[man], events[lg])
	}
	if bytes[lg] <= bytes[man] {
		t.Errorf("byte volume: logon=%d should exceed manetho=%d (flat encoding)",
			bytes[lg], bytes[man])
	}
}
