package causal

import "mpichv/internal/event"

// LogOn is the protocol of Lee, Park, Yeom and Cho (SRDS 1998): an
// antecedence graph whose piggybacks are emitted in a partial order — for
// any i < j, element j is never in the causal past of element i — so the
// receiver can merge with a single pass (antecedents are always inserted
// before their descendants). The reordering is paid at emission time, and
// the order constraint prevents factoring events by receiver rank, so each
// event carries its receiver id on the wire (flat encoding, §III-C).
type LogOn struct {
	graph

	// Emission scratch: the frontier cut into Lamport runs, and the merge
	// heap over their heads keyed (Lamport, run index).
	runs []span
	heap []uint64
}

// NewLogOn returns an empty LogOn reducer for rank self of np processes.
func NewLogOn(self event.Rank, np int) *LogOn { return &LogOn{graph: newGraph(np)} }

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
// antecedents: its sorted runs, in factored order, are merged by (Lamport,
// run index), the stable sort (equal-Lamport events are causally
// unordered). Cost model: traversal (1 op/event) plus the reorder
// (⌈log₂(K+1)⌉ ops/event) plus one probe per creator chain.
//
//mpichv:noalloc
func (l *LogOn) AppendPiggybackFor(dst event.Rank, buf []event.Determinant) ([]event.Determinant, int64) {
	spans, k := l.frontier(dst, true)
	l.cutRuns(spans)
	for h := l.heap; len(h) > 0; siftDown(h, 0) {
		r := uint32(h[0])
		s := &l.runs[r]
		chain := l.chains.rows[s.row]
		buf = append(buf, chain[s.from].h.det())
		if s.from++; s.from < s.to {
			h[0] = runKey(chain[s.from].h.lamport, int(r))
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
	}
	return buf, int64(k)*(1+log2ceil(k)) + int64(l.np) + int64(l.held)/3
}

// cutRuns cuts spans into maximal runs of non-decreasing Lamport value and
// heapifies their heads. A chain's Lamport values rise, so a span is one
// run unless a regressed recovery re-created IDs with lower values.
//
//mpichv:amortized the run and heap scratch grow to the largest run count once and are reused
func (l *LogOn) cutRuns(spans []span) {
	l.runs, l.heap = l.runs[:0], l.heap[:0]
	for _, s := range spans {
		chain := l.chains.rows[s.row]
		for j := s.from + 1; j < s.to; j++ {
			if chain[j].h.lamport < chain[j-1].h.lamport {
				l.runs = append(l.runs, span{s.row, s.from, j})
				s.from = j
			}
		}
		l.runs = append(l.runs, s)
	}
	for r, s := range l.runs {
		l.heap = append(l.heap, runKey(l.chains.rows[s.row][s.from].h.lamport, r))
	}
	for i := len(l.heap)/2 - 1; i >= 0; i-- {
		siftDown(l.heap, i)
	}
}

// runKey orders run heads by Lamport value, then by run index.
func runKey(lamport uint32, run int) uint64 { return uint64(lamport)<<32 | uint64(run) }

// siftDown restores the min-heap order of h below slot i.
func siftDown(h []uint64, i int) {
	for c := 2*i + 1; c < len(h); i, c = c, 2*c+1 {
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			return
		}
		h[i], h[c] = h[c], h[i]
	}
}

// PiggybackBytes implements Reducer (flat encoding).
func (l *LogOn) PiggybackBytes(ds []event.Determinant) int {
	return event.FlatSize(ds)
}
