package causal

import (
	"mpichv/internal/causal/sparsevec"
	"mpichv/internal/event"
)

// Manetho is the reference antecedence-graph protocol (Elnozahy &
// Zwaenepoel). On each emission it crosses the graph from the last known
// reception of the destination to bound the events the destination already
// holds, and piggybacks the complement in factored order. Because the
// piggyback carries no ordering guarantee, the receiving side must insert
// all vertices before resolving cross edges — a second pass over the batch
// that makes Manetho's reception handling the most expensive of the three
// protocols (paper §V-D.2).
type Manetho struct {
	conflictLatch

	g *graph
}

// NewManetho returns an empty Manetho reducer for rank self of np
// processes.
func NewManetho(self event.Rank, np int) *Manetho {
	m := &Manetho{g: newGraph(np)}
	m.g.conflict = &m.conflictLatch
	return m
}

// Name implements Reducer.
func (m *Manetho) Name() string { return "manetho" }

// AddLocal implements Reducer.
//
//mpichv:noalloc
func (m *Manetho) AddLocal(d event.Determinant) int64 {
	_, ops := m.g.insert(d)
	return ops
}

// Merge implements Reducer. Cost model: the factored batch carries no
// ordering guarantee, so Manetho inserts all vertices first and then
// resolves cross edges against the graph — three passes over the batch
// plus a bounded re-crossing of the graph, the most expensive reception
// handling of the three protocols (paper §V-D.2).
//
//mpichv:noalloc
func (m *Manetho) Merge(src event.Rank, ds []event.Determinant) int64 {
	for _, d := range ds {
		m.g.insert(d)
	}
	m.g.mergeLearn(src, ds)
	return 3*int64(len(ds)) + int64(m.g.held)/32
}

// AppendPiggybackFor implements Reducer. Cost model: the emission crossing
// visits the graph from the destination's last known reception (a term
// proportional to the held graph size — without an Event Logger the graph
// keeps growing and so does this cost) plus 2 ops per emitted event and one
// probe per creator chain.
//
//mpichv:noalloc
func (m *Manetho) AppendPiggybackFor(dst event.Rank, buf []event.Determinant) ([]event.Determinant, int64) {
	nodes, ops := m.costedFrontier(dst)
	for _, n := range nodes {
		buf = append(buf, n.h.det())
	}
	return buf, ops
}

// costedFrontier computes the emission frontier and the total op cost, the
// single home of Manetho's send-side cost model. The returned slice is
// graph scratch, valid until the next frontier computation.
//
//mpichv:noalloc
func (m *Manetho) costedFrontier(dst event.Rank) ([]*gnode, int64) {
	nodes, creators := m.g.frontier(dst)
	ops := creators + int64(m.g.held)/4
	if len(nodes) == 0 {
		return nil, ops
	}
	return nodes, ops + 2*int64(len(nodes))
}

// Stable implements Reducer.
func (m *Manetho) Stable(vec *sparsevec.Vec) int64 { return m.g.gc(vec) }

// Held implements Reducer.
func (m *Manetho) Held() int { return m.g.held }

// HeldFor implements Reducer.
func (m *Manetho) HeldFor(creator event.Rank) []event.Determinant {
	return m.g.heldFor(creator)
}

// All implements Reducer.
func (m *Manetho) All() []event.Determinant { return m.g.all() }

// PiggybackBytes implements Reducer (factored encoding).
func (m *Manetho) PiggybackBytes(ds []event.Determinant) int {
	return event.FactoredSize(ds)
}
