package causal

import (
	"slices"

	"mpichv/internal/event"
)

// LogOn is the protocol of Lee, Park, Yeom and Cho (SRDS 1998): an
// antecedence graph whose piggybacks are emitted in a partial order — for
// any i < j, element j is never in the causal past of element i — so the
// receiver can merge with a single pass (antecedents are always inserted
// before their descendants). The reordering is paid at emission time, and
// the order constraint prevents factoring events by receiver rank, so each
// event carries its receiver id on the wire (flat encoding, §III-C).
type LogOn struct{ graph }

// NewLogOn returns an empty LogOn reducer for rank self of np processes.
func NewLogOn(self event.Rank, np int) *LogOn { return &LogOn{newGraph(np)} }

// Name implements Reducer.
func (l *LogOn) Name() string { return "logon" }

// AddLocal implements Reducer.
//
//mpichv:noalloc
func (l *LogOn) AddLocal(d event.Determinant) int64 { return l.insert(d) }

// Merge implements Reducer. Cost model: a single pass over the batch —
// the partial order guarantees a vertex's antecedents are inserted before
// it, which is precisely what the emission-side reordering buys (the
// paper: LogOn "accelerates the unserializing").
//
//mpichv:noalloc
func (l *LogOn) Merge(src event.Rank, ds []event.Determinant) int64 {
	for _, d := range ds {
		l.insert(d)
	}
	l.mergeLearn(src, ds)
	return int64(len(ds))
}

// AppendPiggybackFor implements Reducer. The frontier is reordered by the
// events' Lamport clocks, which strictly increase along causal edges,
// realizing the required partial order even across garbage-collected
// antecedents. Cost model: traversal (1 op/event) plus the reorder
// (⌈log₂(K+1)⌉ ops/event) plus one probe per creator chain.
//
//mpichv:noalloc
func (l *LogOn) AppendPiggybackFor(dst event.Rank, buf []event.Determinant) ([]event.Determinant, int64) {
	nodes := l.frontier(dst, true)
	// Stable sort: ancestors (strictly smaller Lamport value) come first;
	// ties keep factored order, which is fine because equal-Lamport events
	// are causally unordered.
	slices.SortStableFunc(nodes, byLamport)
	k := int64(len(nodes))
	return appendDets(buf, nodes), k*(1+log2ceil(len(nodes))) + int64(l.np) + int64(l.held)/3
}

func byLamport(a, b *gnode) int {
	switch {
	case a.h.lamport < b.h.lamport:
		return -1
	case a.h.lamport > b.h.lamport:
		return 1
	}
	return 0
}

// PiggybackBytes implements Reducer (flat encoding).
func (l *LogOn) PiggybackBytes(ds []event.Determinant) int {
	return event.FlatSize(ds)
}
