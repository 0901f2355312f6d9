package causal

import (
	"maps"
	"math/rand"
	"slices"
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
	// vcAt is each event's ground-truth vector clock, for LogOn order
	// checks.
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

// send asks src's reducer for its piggyback to dst and delivers it.
func (d *driver) send(src, dst int) []event.Determinant {
	pb, _ := d.rs[src].AppendPiggybackFor(event.Rank(dst), nil)
	d.deliver(src, dst, pb)
	return pb
}

// deliver checks the per-message invariants of piggyback pb from src to dst,
// then delivers the message: dst merges pb and creates the reception
// determinant, and the ground truth follows.
func (d *driver) deliver(src, dst int, pb []event.Determinant) {
	t := d.t
	t.Helper()

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
// prefix of each creator's events.
func (d *driver) ackStable(r *rand.Rand) {
	vec := make([]uint64, d.np)
	for c := 0; c < d.np; c++ {
		if d.clock[c] > 0 {
			vec[c] = d.stable[c] + uint64(r.Int63n(int64(d.clock[c]-d.stable[c]+1)))
		}
	}
	d.ack(vec)
}

// ack broadcasts the Event Logger acknowledgment vec to every process.
func (d *driver) ack(vec []uint64) {
	for c, f := range vec {
		d.stable[c] = max(d.stable[c], f)
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

// TestPropertyWideWorld runs the random exchanges in a world wider than
// two 64-rank words, with and without an Event Logger, so sends, merges
// and acknowledgements touch creators on both sides of each word boundary.
func TestPropertyWideWorld(t *testing.T) {
	for _, name := range Names() {
		runRandomExchanges(t, name, 130, 600, 0, 5)
		runRandomExchanges(t, name, 130, 600, 9, 6)
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
			dv.deliver(src, dst, pbV)
			dm.deliver(src, dst, pbM)
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
			pb := d.send(src, dst)
			events[idx] += int64(len(pb))
			bytes[idx] += int64(d.rs[src].PiggybackBytes(pb))
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

// FuzzReducers drives the three reducers over one identical history decoded
// from the input: byte 0 picks the world size (2–12, or from 252 up one of
// the wide worlds 63, 64, 65 and 129); then each byte below 224 is a send
// (src and dst from its value) and each byte from 224 up is an Event Logger
// acknowledgment, whose next bytes pick a prefix of each creator's events.
// A small world's sends and acknowledgements reach every rank; a wide
// world's reach the ranks at its ends, its middle and both sides of each
// 64-rank boundary (wideRanks). Every delivery checks the driver's invariants;
// every send also checks that Manetho and LogOn emit the same set. Until
// the first acknowledgment, that set must also be within what Vcausal
// emits now or sent to dst before: Vcausal assumes the least knowledge.
// Once collection starts this no longer holds (seed 7816d7acba442dd1): a
// clock computed after an antecedent was collected keeps only that
// antecedent's own identity, so inference can know less than what Vcausal
// learned from dst's own, larger, piggybacks. The run ends with a
// completeness check.
func FuzzReducers(f *testing.F) {
	r := rand.New(rand.NewSource(7))
	for _, np := range []byte{0, 3, 10, 252, 254, 255} {
		seed := []byte{np}
		for range 300 {
			seed = append(seed, byte(r.Intn(256)))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		script = script[:min(len(script), 2048)]
		np, ranks := worldOf(script[0])
		n := len(ranks)
		var ds [3]*driver
		for k, name := range Names() {
			ds[k] = newDriver(t, name, np)
		}
		dv, acked := ds[0], false
		for i := 1; i < len(script); i++ {
			if b := int(script[i]); b < 224 {
				si, di := b%n, b/n%(n-1)
				if di >= si {
					di++
				}
				src, dst := ranks[si], ranks[di]
				var pbs [3][]event.Determinant
				for k, d := range ds {
					pbs[k], _ = d.rs[src].AppendPiggybackFor(event.Rank(dst), nil)
				}
				if !maps.Equal(ids(pbs[1]), ids(pbs[2])) {
					t.Fatalf("send %d->%d: manetho emitted %v, logon %v", src, dst, pbs[1], pbs[2])
				}
				sentV := ids(pbs[0])
				for _, e := range pbs[1] {
					if !acked && !sentV[e.ID] && !dv.sentPair[src*np+dst][e.ID] {
						t.Fatalf("send %d->%d: manetho emitted %v, which vcausal neither emits nor sent before", src, dst, e.ID)
					}
				}
				for k, d := range ds {
					d.deliver(src, dst, pbs[k])
				}
				continue
			}
			vec := make([]uint64, np)
			for _, c := range ranks {
				if i+1 < len(script) {
					i++
					vec[c] = dv.stable[c] + uint64(script[i])%(dv.clock[c]-dv.stable[c]+1)
				}
			}
			for _, d := range ds {
				d.ack(vec)
			}
			acked = true
		}
		for _, d := range ds {
			d.checkCompleteness()
		}
	})
}

// worldOf decodes FuzzReducers' header byte into the world size and the
// ranks its sends and acknowledgements reach.
func worldOf(b byte) (np int, ranks []int) {
	if b < 252 {
		np = 2 + int(b)%11
		for r := range np {
			ranks = append(ranks, r)
		}
		return np, ranks
	}
	np = []int{63, 64, 65, 129}[b-252]
	return np, wideRanks(np)
}

// wideRanks returns the ranks of a wide world a fuzzed history reaches: its
// ends, its middle, and the ranks on both sides of each 64-rank boundary.
func wideRanks(np int) []int {
	var ranks []int
	for _, r := range []int{0, 1, 62, 63, 64, 65, 127, 128, np / 2, np - 2, np - 1} {
		if r < np && !slices.Contains(ranks, r) {
			ranks = append(ranks, r)
		}
	}
	slices.Sort(ranks)
	return ranks
}
