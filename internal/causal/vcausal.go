package causal

import "mpichv/internal/event"

// Vcausal is the paper's light-computation protocol: the held determinants
// of each creator in clock order plus, for every peer, the highest clock of
// each creator's events that peer is known to hold (learned only through
// direct exchanges with that peer). It runs the shared store with
// inference off: no antecedence information is used, so the reduction is
// weaker than the graph-based protocols but every operation is a chain
// scan or append.
type Vcausal struct{ graph }

// NewVcausal returns an empty Vcausal reducer for rank self of np processes.
func NewVcausal(self event.Rank, np int) *Vcausal { return &Vcausal{newGraph(np)} }

// AddLocal implements Reducer: one comparison, or an append.
//
//mpichv:noalloc
func (v *Vcausal) AddLocal(d event.Determinant) int64 {
	v.insert(d)
	return 1
}

// Merge implements Reducer: one comparison or append per determinant.
//
//mpichv:noalloc
func (v *Vcausal) Merge(src event.Rank, ds []event.Determinant) int64 {
	for _, d := range ds {
		v.insert(d)
	}
	v.mergeLearn(src, ds)
	return int64(len(ds))
}

// AppendPiggybackFor implements Reducer: every held determinant newer than
// what dst is known to hold (and newer than the stability horizon),
// grouped by creator in clock order — the factored emission order. The
// cost model charges one probe per world rank (a dense scan, as the
// protocol is described in the paper) plus one op per emitted event, and a
// held-size term for the management of the growing per-creator sequences:
// the paper's Figure 8a shows Vcausal's send-side time growing roughly
// tenfold without an Event Logger, so the cost cannot be independent of
// state size.
//
//mpichv:noalloc
func (v *Vcausal) AppendPiggybackFor(dst event.Rank, buf []event.Determinant) ([]event.Determinant, int64) {
	spans, k := v.frontier(dst, false)
	return v.appendSpans(buf, spans), int64(v.held)/8 + int64(v.np) + int64(k)
}

// PiggybackBytes implements Reducer (factored encoding).
func (v *Vcausal) PiggybackBytes(ds []event.Determinant) int {
	return event.FactoredSize(ds)
}
