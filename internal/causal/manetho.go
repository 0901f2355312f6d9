package causal

import "mpichv/internal/event"

// Manetho is the reference antecedence-graph protocol (Elnozahy &
// Zwaenepoel). On each emission it crosses the graph from the last known
// reception of the destination to bound the events the destination already
// holds, and piggybacks the complement in factored order. Because the
// piggyback carries no ordering guarantee, the receiving side must insert
// all vertices before resolving cross edges — a second pass over the batch
// that makes Manetho's reception handling the most expensive of the three
// protocols (paper §V-D.2).
type Manetho struct{ graph }

// NewManetho returns an empty Manetho reducer for rank self of np
// processes.
func NewManetho(self event.Rank, np int) *Manetho { return &Manetho{newGraph(np)} }

// Name implements Reducer.
func (m *Manetho) Name() string { return "manetho" }

// AddLocal implements Reducer.
//
//mpichv:noalloc
func (m *Manetho) AddLocal(d event.Determinant) int64 { return m.insert(d) }

// Merge implements Reducer. Cost model: the factored batch carries no
// ordering guarantee, so Manetho inserts all vertices first and then
// resolves cross edges against the graph — three passes over the batch
// plus a bounded re-crossing of the graph, the most expensive reception
// handling of the three protocols (paper §V-D.2).
//
//mpichv:noalloc
func (m *Manetho) Merge(src event.Rank, ds []event.Determinant) int64 {
	for _, d := range ds {
		m.insert(d)
	}
	m.mergeLearn(src, ds)
	return 3*int64(len(ds)) + int64(m.held)/32
}

// AppendPiggybackFor implements Reducer. Cost model: the emission crossing
// visits the graph from the destination's last known reception (a term
// proportional to the held graph size — without an Event Logger the graph
// keeps growing and so does this cost) plus 2 ops per emitted event and one
// probe per creator chain.
//
//mpichv:noalloc
func (m *Manetho) AppendPiggybackFor(dst event.Rank, buf []event.Determinant) ([]event.Determinant, int64) {
	spans, k := m.frontier(dst, true)
	return m.appendSpans(buf, spans), int64(m.np) + int64(m.held)/4 + 2*int64(k)
}

// PiggybackBytes implements Reducer (factored encoding).
func (m *Manetho) PiggybackBytes(ds []event.Determinant) int {
	return event.FactoredSize(ds)
}
