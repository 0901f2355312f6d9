// Package event defines nondeterministic-event identifiers and reception
// determinants — the unit of information that causal message logging
// protocols piggyback on application messages and ship to the Event Logger.
//
// Terminology follows the paper: every message *reception* is a potentially
// nondeterministic event. The k-th event created by process p is identified
// by the EventID {p, k}; the associated Determinant records which message
// (sender and send sequence number) that reception delivered, which is
// exactly what a recovering process needs to replay its execution.
package event

import "fmt"

// Rank identifies an MPI process (0-based).
type Rank int32

// NoRank marks an absent rank (e.g. the parent of a process's very first
// event).
const NoRank Rank = -1

// EventID identifies the Clock-th nondeterministic event created by process
// Creator. Clocks start at 1; the zero EventID means "no event".
type EventID struct {
	Creator Rank
	Clock   uint64
}

// Zero reports whether the id denotes "no event".
func (id EventID) Zero() bool { return id.Clock == 0 }

func (id EventID) String() string {
	if id.Zero() {
		return "e(-)"
	}
	return fmt.Sprintf("e(%d,%d)", id.Creator, id.Clock)
}

// Determinant is the logged outcome of one reception event: process
// ID.Creator's ID.Clock-th event delivered the SendSeq-th message sent to it
// by Sender. Parent is the last event the sender had created when it emitted
// that message; it is the cross-process edge of the antecedence graph used
// by the Manetho and LogOn protocols (zero for messages sent before the
// sender's first reception).
type Determinant struct {
	ID      EventID
	Sender  Rank
	SendSeq uint64
	Parent  EventID
	// Lamport is the creator's Lamport clock at the event: one more than
	// the maximum of the creator's previous event's Lamport value and the
	// sender's Lamport value carried on the message. It totally orders any
	// event with its causal ancestors even after those ancestors are
	// garbage collected, which is what LogOn's partial-order emission
	// requires.
	Lamport uint64
}

func (d Determinant) String() string {
	return fmt.Sprintf("det{%v <- m(%d,%d) parent=%v}", d.ID, d.Sender, d.SendSeq, d.Parent)
}

// Held is a determinant as a store holds it, 28 bytes: clocks, send
// sequence and Lamport value at the wire codec's 32 bits (§III-C), ranks at
// full width. The reducers' antecedence graph and the Event Logger both keep
// this form; Pack and Det convert exactly, zero-clock parents included.
type Held struct {
	Clock, SendSeq, ParentClock, Lamport uint32
	Creator, Sender, ParentCreator       Rank
}

// Pack returns d's held form. A field beyond 32 bits fails loudly.
func Pack(d Determinant) Held {
	if (d.ID.Clock|d.SendSeq|d.Parent.Clock|d.Lamport)>>32 != 0 {
		tooWide(d)
	}
	return Held{uint32(d.ID.Clock), uint32(d.SendSeq), uint32(d.Parent.Clock), uint32(d.Lamport), d.ID.Creator, d.Sender, d.Parent.Creator}
}

// Det returns the determinant h holds.
func (h Held) Det() Determinant {
	return Determinant{ID: EventID{Creator: h.Creator, Clock: uint64(h.Clock)}, Sender: h.Sender, SendSeq: uint64(h.SendSeq),
		Parent: EventID{Creator: h.ParentCreator, Clock: uint64(h.ParentClock)}, Lamport: uint64(h.Lamport)}
}

// tooWide aborts on a determinant Pack cannot hold: a creator would need
// 2³² events first.
//
//mpichv:amortized cold abort: the message is built only on the way to a panic
func tooWide(d Determinant) {
	panic(fmt.Sprintf("event: %v (lamport %d) has a field beyond the 32-bit held form", d, d.Lamport))
}

// Wire-size constants for the two piggyback encodings (§III-C of the paper).
//
// Vcausal and Manetho factor determinants by receiver (creator) rank: the
// piggyback is a list of {rid, nb, sequence of events}, so the creator rank
// is paid once per group rather than once per event. LogOn's partial-order
// requirement makes factoring impossible, so every event carries its
// receiver rank and the per-event wire size is larger.
const (
	// FactoredGroupHeader is the {rid, nb} header of one factored group.
	FactoredGroupHeader = 4
	// FactoredEventSize is the per-event payload in a factored group:
	// clock (4) + sender (2) + send seq (4) + parent creator (2) +
	// parent clock (4) + Lamport clock (4).
	FactoredEventSize = 20
	// FlatEventSize is the per-event size of the LogOn encoding: the
	// factored payload plus the receiver rank (2) and 2 bytes of framing
	// that factoring would otherwise amortize.
	FlatEventSize = 24
)

// FactoredSize returns the wire size in bytes of ds in the factored
// encoding. Determinants of the same creator that are adjacent in ds share
// one group header, which matches how AppendPiggybackFor emits them
// (grouped by creator).
func FactoredSize(ds []Determinant) int {
	if len(ds) == 0 {
		return 0
	}
	groups := 1
	for i := 1; i < len(ds); i++ {
		if ds[i].ID.Creator != ds[i-1].ID.Creator {
			groups++
		}
	}
	return groups*FactoredGroupHeader + len(ds)*FactoredEventSize
}

// FlatSize returns the wire size in bytes of ds in the flat (LogOn)
// encoding.
func FlatSize(ds []Determinant) int { return len(ds) * FlatEventSize }
