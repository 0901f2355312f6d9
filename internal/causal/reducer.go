// Package causal implements the paper's three causal message logging
// piggyback-reduction protocols: Vcausal, Manetho and LogOn.
//
// All three share the same contract (Reducer): the communication daemon
// notifies the reducer of locally created reception determinants
// (AddLocal), of determinants piggybacked on incoming messages (Merge) and
// of Event Logger acknowledgments (Stable); before each send it asks which
// held determinants must accompany the outgoing message
// (AppendPiggybackFor).
//
// # Cost model
//
// Each mutating call returns an operation count: the number of elementary
// steps (graph node visits, comparisons, appends, sort steps) the protocol
// as described in the paper performs for that call. The daemon converts
// ops to virtual CPU time; this is the quantity Figure 8 of the paper
// reports. The counts follow the paper's qualitative analysis:
//
// With K the piggyback length, C the number of creator chains, H the held
// graph size:
//
//   - Vcausal keeps the same per-creator chains but never crosses them as
//     a graph (the store's inference off, no clock materialised): send
//     scans the chains (C + K + H/8 — the paper's Figure 8a shows its
//     send-side time growing without an Event Logger), merge appends (K
//     ops). The paper's "light computation cost" protocol.
//   - Manetho crosses the antecedence graph on each emission
//     (C + 2K + H/4 — the H term is the paper's "the complete graph has to
//     be traversed for each emission", which makes no-EL costs grow with
//     the uncollected graph) and pays the most expensive reception of the
//     three (3K + H/32): the factored piggyback carries no ordering
//     guarantee, so vertices must all be inserted before cross edges can
//     be resolved against the graph.
//   - LogOn pays its crossing and the reordering at emission
//     (C + K·(1+⌈log₂(K+1)⌉) + H/3) so the receiver can merge in a single
//     cheap pass (K): antecedents always precede their descendants.
//
// These coefficients reproduce the paper's orderings: Vcausal is always
// cheapest; LogOn's heavier emission loses to Manetho when graphs grow
// large (LU without EL); Manetho's expensive reception loses to LogOn when
// the EL keeps state small but message counts are high (LU/CG with EL,
// FT's all-to-all).
//
// All three hold one store (graph): one clock-ordered chain of determinants
// per creator, what each peer is known to hold, and the stability horizon.
// Each sends the held determinants above the destination's known floors.
// The piggyback *set* produced by Manetho and LogOn is identical (both
// raise the floors by the destination's inferred knowledge, the causal
// past of its latest held event); they differ in emission order, wire
// encoding (factored vs flat) and cost. Vcausal's set is larger because
// its floors are what it learned through direct exchanges alone.
package causal

import (
	"mpichv/internal/causal/sparsevec"
	"mpichv/internal/event"
)

// Reducer is the piggyback-management strategy of a causal logging process.
// Implementations are single-process state machines driven by the daemon;
// they are not safe for concurrent use (the simulator is single-threaded by
// construction).
type Reducer interface {
	// AddLocal records a determinant just created by the local process
	// (delivery of a message). It must be called after Merge of the same
	// message's piggyback, so antecedents are already present. Returns the
	// op count.
	AddLocal(d event.Determinant) int64

	// Merge incorporates determinants piggybacked on a message received
	// from src, in the order the wire carried them. Returns the op count.
	Merge(src event.Rank, ds []event.Determinant) int64

	// AppendPiggybackFor appends to buf the held determinants that must
	// accompany the next message to dst, in protocol emission order, and
	// returns the grown buffer plus the op count. The reducer commits the
	// optimistic assumption that dst now knows them (no event is ever sent
	// twice between the same pair, §III-B). The buffer is caller-owned, so
	// steady-state senders recycling their piggyback buffers (the daemon
	// keeps a free list of consumed ones) allocate nothing.
	AppendPiggybackFor(dst event.Rank, buf []event.Determinant) ([]event.Determinant, int64)

	// Stable applies an Event Logger acknowledgment: for every creator c,
	// events with clock ≤ vec's floor for c are stably logged and are
	// garbage collected from volatile state. A nil vector is a no-op.
	// Returns the op count.
	Stable(vec *sparsevec.Vec) int64

	// Held reports how many determinants are currently in volatile memory
	// (the paper's "size of the antecedence graph in the node memory").
	Held() int

	// HeldBytes reports the host bytes held: chain capacity plus clock arena.
	HeldBytes() int64

	// HeldFor returns the held determinants created by the given rank in
	// clock order. Recovery uses it to reclaim a crashed process's events
	// from survivors when no Event Logger is deployed.
	HeldFor(creator event.Rank) []event.Determinant

	// All returns every held determinant (stored into checkpoint images).
	All() []event.Determinant

	// PiggybackBytes reports the wire size of a piggyback in this
	// protocol's encoding (factored for Vcausal/Manetho, flat for LogOn).
	PiggybackBytes(ds []event.Determinant) int

	// TakeIDConflict returns and clears the first determinant-ID conflict
	// observed since the last call: a held determinant whose (creator,
	// clock) arrived again with different content (Merge), or whose
	// antecedence edges closed a cycle (AppendPiggybackFor). Either means
	// the creator recovered from regressed state and re-created IDs — an
	// undetected determinant loss upstream; the daemon classifies it as
	// such. The conflicting insert itself is dropped (the held copy wins),
	// and a cycle walk treats the node it met twice as absent, so the
	// reducer's own invariants still hold when the caller chooses to
	// continue.
	TakeIDConflict() (det event.Determinant, ok bool)
}

// New constructs the reducer named name ("vcausal", "manetho" or "logon")
// for a process of rank self in a world of np processes. It panics on an
// unknown name; protocol selection is a configuration-time decision.
func New(name string, self event.Rank, np int) Reducer {
	switch name {
	case "vcausal":
		return NewVcausal(self, np)
	case "manetho":
		return NewManetho(self, np)
	case "logon":
		return NewLogOn(self, np)
	}
	panic("causal: unknown reducer " + name)
}

// Names lists the available reducers in the paper's presentation order.
func Names() []string { return []string{"vcausal", "manetho", "logon"} }

// log2ceil returns ⌈log₂(n+1)⌉, the per-element sort factor charged to
// LogOn's emission reordering.
func log2ceil(n int) int64 {
	bits := int64(0)
	for v := n; v > 0; v >>= 1 {
		bits++
	}
	return bits
}

// conflictLatch records the first determinant-ID conflict a reducer
// observes, for the daemon to collect after a merge or an emission
// (TakeIDConflict). Latching only the first keeps the duplicate fast path
// to one comparison; once a conflict exists the run's outcome is decided
// anyway.
type conflictLatch struct {
	det event.Determinant
	set bool
}

func (c *conflictLatch) latch(d event.Determinant) {
	if !c.set {
		c.det, c.set = d, true
	}
}

// TakeIDConflict implements Reducer for every reducer, through the store
// they embed.
func (c *conflictLatch) TakeIDConflict() (event.Determinant, bool) {
	d, ok := c.det, c.set
	*c = conflictLatch{}
	return d, ok
}

// conflicts reports whether two determinants under the same ID disagree on
// content: a re-created ID aliases different events, the signature of a
// regressed recovery. Lamport values are part of the content (they drive
// LogOn's emission order), but a bare Lamport difference with identical
// delivery content cannot change replay and is tolerated.
func conflicts(a, b event.Determinant) bool {
	return a.Sender != b.Sender || a.SendSeq != b.SendSeq || a.Parent != b.Parent
}
