package causal

import (
	"math/bits"
	"unsafe"

	"mpichv/internal/causal/sparsevec"
	"mpichv/internal/event"
)

// graph is the one held-determinant store the three reducers embed: one
// clock-ordered chain of determinants per creator, what each peer is known
// to hold, and the stability horizon. The reducers differ only in how they
// bound what a destination already knows (frontier's infer switch), in
// their op counts, their emission order and their wire encoding.
//
// Read as an antecedence graph, vertices are reception determinants and two
// kinds of edges exist, both implicit in the determinant fields:
//
//   - chain edges: event (c, k-1) precedes (c, k) — per-creator total order;
//   - cross edges: d.Parent (the sender's last event before the emission)
//     precedes d.ID.
//
// The causal past of any single event is downward closed per creator, so it
// is exactly a vector clock. With inference on (Manetho, LogOn), the clock
// of the destination's latest held event is computed lazily and raises its
// known floors — the paper's "crossing this graph allows to better estimate
// the events already known by a receiver". With inference off (Vcausal),
// only direct exchanges and the horizon count, and no clock is ever
// materialised.
//
// Layout. A held determinant costs no heap object and no pointer: chains
// are value slices of gnode in rankTable rows, collected by
// copy-compaction. A bitmap marks the non-empty chains: a send or an ack
// walks np/64 words and the live chains, in ascending rank order (the
// factored emission order). A node is 32 bytes, an event.Held and vc, its clock state: 0
// not computed, inFlight on vcOf's stack, > 0 the arena slot holding its
// causal past as np words. vcOf visits the chain predecessor before
// the parent, lets a parent absent when the clock is computed contribute
// only its own identity, treats an antecedent already on its stack as
// absent (an ID conflict), and never recomputes a clock: under an Event
// Logger the cached value depends on what had been collected when it was
// computed, so any other order or a re-evaluation would move the
// piggybacks and with them every table. The arena costs 2·np bytes per
// held, materialised node, carved lazily from ≈ 32 KB blocks, slots
// recycled when Stable collects the node. A word is a max of inserted
// clocks: 16 bits until insert meets one above 65,535 and widens it to 32.
//
// Per-rank tables (knownBy, lastHeld, stable) are sparsevec.Vec floor
// arrays, knownBy holding one only per active peer. The *op counts* the
// reducers charge are computed arithmetically over the world size.
type graph struct {
	// conflictLatch latches determinant-ID conflicts found by insert and
	// vcOf (TakeIDConflict).
	conflictLatch

	np int

	// chains holds, per active creator, the live nodes of that creator in
	// clock order (a suffix above the stability horizon). Bit c of live is
	// set while creator c's chain is non-empty; walking the words and their
	// set bits in turn visits the live chains in ascending rank order.
	chains rankTable[[]gnode]
	live   []uint64

	// knownBy holds, per active peer, the floors of what that peer is known
	// to hold from direct exchanges: what we sent it and what it sent us.
	knownBy rankTable[*sparsevec.Vec]
	// lastHeld[c] is the highest clock of c's events ever inserted (dedup).
	lastHeld *sparsevec.Vec
	// stable[c] is the Event Logger's acknowledged clock for creator c.
	stable *sparsevec.Vec

	held int

	// The clock arena: slot s (1-based) is np words of block
	// (s-1)>>slotShift, of wide once the graph widened (non-nil), else of
	// narrow. slots counts the slots ever carved, slotFree the ones Stable
	// took back.
	narrow    [][]uint16
	wide      [][]uint32
	slotShift uint
	slots     int32
	slotFree  []int32

	// Scratch, reused across calls (the reducer is a single-process state
	// machine, never shared between goroutines):
	//   spans    backs frontier's result (valid until the next call);
	//   vcStack  backs vcOf's iterative dependency walk.
	spans   []span
	vcStack []*gnode
}

// span is chains.rows[row][from:to], one chain's part of a frontier.
type span struct{ row, from, to int32 }

// gnode is one held determinant, an antecedence-graph vertex.
type gnode struct {
	h event.Held
	// vc is the state of the node's lazily computed causal past: 0 not
	// computed, inFlight, or the arena slot that holds it.
	vc int32
}

// inFlight marks a node whose clock computation is on vcOf's explicit
// stack; reaching one again means the antecedence edges form a cycle (see
// vcOf).
const inFlight = -1

// arenaBlockWords is the clock arena granularity (32 KB of 16-bit words):
// large enough to amortize the block allocation to noise, small enough not
// to bloat tiny runs. A world wider than a block gets one slot per block.
const arenaBlockWords = 16384

func newGraph(np int) graph {
	return graph{
		np:        np,
		lastHeld:  sparsevec.New(np),
		stable:    sparsevec.New(np),
		slotShift: uint(max(bits.Len(uint(arenaBlockWords/np))-1, 0)),
	}
}

// clock returns the np words of a computed clock in the arena's blocks.
//
//mpichv:noalloc
func clock[W uint16 | uint32](g *graph, blocks [][]W, slot int32) []W {
	s := int(slot - 1)
	off := (s & (1<<g.slotShift - 1)) * g.np
	return blocks[s>>g.slotShift][off : off+g.np]
}

// newClock returns a free arena slot and its words, which hold whatever
// the slot's previous owner left: the caller overwrites all of them.
//
//mpichv:amortized arena refill: one make per block of slots, and Stable recycles the slots of collected nodes
func newClock[W uint16 | uint32](g *graph, blocks *[][]W) (int32, []W) {
	if k := len(g.slotFree); k > 0 {
		slot := g.slotFree[k-1]
		g.slotFree = g.slotFree[:k-1]
		return slot, clock(g, *blocks, slot)
	}
	if int(g.slots)>>g.slotShift == len(*blocks) {
		*blocks = append(*blocks, make([]W, g.np<<g.slotShift))
	}
	g.slots++
	return g.slots, clock(g, *blocks, g.slots)
}

// widen moves the clock arena to 32-bit words, block for block: every slot
// keeps its number and every computed clock its value.
//
//mpichv:amortized one-time copy: a graph widens once, before it holds its first clock above 65,535, and never narrows
func (g *graph) widen() {
	g.wide = make([][]uint32, len(g.narrow)) // non-nil: the graph is wide
	for i, blk := range g.narrow {
		for _, w := range blk {
			g.wide[i] = append(g.wide[i], uint32(w))
		}
	}
	g.narrow = nil
}

// after returns the index of the first node of chain with a clock above
// clock, len(chain) when none: the suffix a holder of clock lacks. In a
// chain without gaps (last − first = len − 1) that is the distance from
// the first clock; only a chain with gaps is searched.
func after(chain []gnode, clock uint64) int {
	n := len(chain)
	if n == 0 || clock < uint64(chain[0].h.Clock) {
		return 0
	}
	if first, last := uint64(chain[0].h.Clock), uint64(chain[n-1].h.Clock); clock >= last {
		return n
	} else if last-first == uint64(n-1) {
		return int(clock-first) + 1
	}
	lo, hi := 1, n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if uint64(chain[mid].h.Clock) > clock {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// lookup returns the held node with the given event ID, or nil. The
// pointer is into the creator's chain: valid until the next insert or
// Stable.
//
//mpichv:noalloc
func (g *graph) lookup(id event.EventID) *gnode {
	chain, _ := g.chains.lookup(id.Creator)
	if i := after(chain, id.Clock-1); i < len(chain) && uint64(chain[i].h.Clock) == id.Clock {
		return &chain[i]
	}
	return nil
}

// liveChain returns creator c's chain row and marks it live.
//
//mpichv:amortized the live bitmap is sized with the first chain and rows are created once per newly active creator
func (g *graph) liveChain(c event.Rank) *[]gnode {
	if g.live == nil {
		g.live = make([]uint64, (g.np+63)/64)
	}
	g.live[c>>6] |= 1 << (c & 63)
	return g.chains.row(c, g.np)
}

// insert adds d to the store if it is neither held nor stable. The returned
// op count is the raw structural cost (lookups + append); callers scale it
// by their protocol's per-event factor.
func (g *graph) insert(d event.Determinant) (ops int64) {
	c := d.ID.Creator
	if d.ID.Clock <= g.lastHeld.Get(int(c)) || d.ID.Clock <= g.stable.Get(int(c)) {
		// Duplicate or already stable. A copy still held is compared
		// against the incoming content: a mismatch means the creator
		// re-created this ID after a regressed recovery (see
		// TakeIDConflict). Stable (collected) copies can no longer be
		// compared.
		if n := g.lookup(d.ID); n != nil && conflicts(n.h.Det(), d) {
			g.latch(n.h.Det())
		}
		return 1
	}
	if g.wide == nil && max(d.ID.Clock, d.Parent.Clock) >= 1<<16 {
		g.widen()
	}
	chain := g.liveChain(c)
	*chain = append(*chain, gnode{h: event.Pack(d)})
	g.lastHeld.SetMax(int(c), d.ID.Clock)
	g.held++
	return 3
}

// vcOf returns the vector clock (causal past) of n in the arena's blocks,
// computing and caching it on demand. The computation walks antecedence
// edges iteratively so chains of any length cannot overflow the Go stack.
//
//mpichv:amortized the walk stack grows to the longest dependency path once and is reused; each clock is computed once, into an arena slot
func vcOf[W uint16 | uint32](g *graph, blocks *[][]W, n *gnode) []W {
	if n.vc > 0 {
		return clock(g, *blocks, n.vc)
	}
	n.vc = inFlight
	stack := append(g.vcStack[:0], n)
	// A legal causal graph is a DAG, but determinant IDs re-created by an
	// incarnation that restored regressed state (an undetected determinant
	// loss under concurrent failures) can alias old and new events into a
	// cycle. An antecedent already in flight closes one. That is the ID
	// conflict insert catches when the content differs, so its ID is
	// latched the same way (TakeIDConflict), and the walk treats the
	// antecedent as absent, so every node still gets a clock.
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		chainPred := g.lookup(event.EventID{Creator: cur.h.Creator, Clock: uint64(cur.h.Clock) - 1})
		if chainPred != nil && chainPred.vc <= 0 {
			if chainPred.vc == 0 {
				chainPred.vc = inFlight
				stack = append(stack, chainPred)
				continue
			}
			g.latch(chainPred.h.Det())
			chainPred = nil
		}
		var parent *gnode
		if cur.h.ParentClock != 0 {
			parent = g.lookup(event.EventID{Creator: cur.h.ParentCreator, Clock: uint64(cur.h.ParentClock)})
		}
		if parent != nil && parent.vc <= 0 {
			if parent.vc == 0 {
				parent.vc = inFlight
				stack = append(stack, parent)
				continue
			}
			g.latch(parent.h.Det())
			parent = nil
		}
		slot, vc := newClock(g, blocks)
		if chainPred != nil {
			copy(vc, clock(g, *blocks, chainPred.vc))
		} else {
			clear(vc)
		}
		if parent != nil {
			for c, f := range clock(g, *blocks, parent.vc) {
				vc[c] = max(vc[c], f)
			}
		} else if cur.h.ParentClock != 0 {
			// Parent was garbage collected (stable), never held, or is on
			// the walk's stack: the only safe knowledge it contributes is
			// its own identity.
			vc[cur.h.ParentCreator] = max(vc[cur.h.ParentCreator], W(cur.h.ParentClock))
		}
		// The node's own entry: always above anything its antecedents know
		// of this creator (an event cannot be in its own causal past).
		vc[cur.h.Creator] = max(vc[cur.h.Creator], W(cur.h.Clock))
		cur.vc = slot
		stack = stack[:len(stack)-1]
	}
	g.vcStack = stack
	return clock(g, *blocks, n.vc)
}

// knownVec returns dst's direct-exchange knowledge floors, creating them on
// first contact.
//
//mpichv:amortized one vector allocation per newly active peer, reused for the rest of the run
func (g *graph) knownVec(dst event.Rank) *sparsevec.Vec {
	known := g.knownBy.row(dst, g.np)
	if *known == nil {
		*known = sparsevec.New(g.np)
	}
	return *known
}

// frontier returns the held determinants dst is not believed to hold, as
// chain suffixes in factored order, with their count, and commits them
// to knownBy[dst]. Each live chain's threshold is the max, at that
// chain's creator, of dst's direct-exchange knowledge, the stability
// horizon and — only when infer is set — the causal past of dst's latest
// held event. A process knows its own events, so dst's chain is skipped.
// The spans are scratch, valid until the next frontier, insert or Stable.
func (g *graph) frontier(dst event.Rank, infer bool) (spans []span, k int) {
	if g.wide != nil {
		return frontierIn(g, &g.wide, dst, infer)
	}
	return frontierIn(g, &g.narrow, dst, infer)
}

// frontierIn is frontier over the arena's blocks at their current width.
func frontierIn[W uint16 | uint32](g *graph, blocks *[][]W, dst event.Rank, infer bool) (spans []span, k int) {
	out := g.spans[:0]
	known, _ := g.knownBy.lookup(dst)
	var vc []W
	if infer {
		if chain, _ := g.chains.lookup(dst); len(chain) > 0 {
			vc = vcOf(g, blocks, &chain[len(chain)-1])
		}
	}
	for w, word := range g.live {
		for ; word != 0; word &= word - 1 {
			key := w<<6 | bits.TrailingZeros64(word)
			if event.Rank(key) == dst {
				continue
			}
			i := g.chains.slot(event.Rank(key))
			chain := g.chains.rows[i]
			threshold := g.stable.Get(key)
			if known != nil {
				threshold = max(threshold, known.Get(key))
			}
			if vc != nil {
				threshold = max(threshold, uint64(vc[key]))
			}
			// Steady state: the whole chain already known — one tail
			// comparison instead of a search.
			last := uint64(chain[len(chain)-1].h.Clock)
			if last <= threshold {
				continue
			}
			from := after(chain, threshold)
			out = append(out, span{int32(i), int32(from), int32(len(chain))})
			k += len(chain) - from
			if known == nil {
				known = g.knownVec(dst)
			}
			known.SetMax(key, last)
		}
	}
	g.spans = out[:0]
	return out, k
}

// appendSpans appends the determinants of spans, unpacked, to buf.
func (g *graph) appendSpans(buf []event.Determinant, spans []span) []event.Determinant {
	for _, s := range spans {
		chain := g.chains.rows[s.row]
		for j := s.from; j < s.to; j++ {
			buf = append(buf, chain[j].h.Det())
		}
	}
	return buf
}

// mergeLearn updates direct-exchange knowledge after receiving ds from src
// (it necessarily held what it piggybacked).
//
//mpichv:noalloc
func (g *graph) mergeLearn(src event.Rank, ds []event.Determinant) {
	if len(ds) == 0 {
		return
	}
	known := g.knownVec(src)
	for _, d := range ds {
		known.SetMax(int(d.ID.Creator), d.ID.Clock)
	}
}

// Stable implements Reducer: it raises the horizon to vec and collects, in
// one walk over the live chains, every node at or below it. A chain it
// empties leaves the live set.
//
//mpichv:noalloc
func (g *graph) Stable(vec *sparsevec.Vec) int64 {
	if vec == nil {
		return 0
	}
	g.stable.MaxFrom(vec)
	ops := int64(0)
	for w, word := range g.live {
		for ; word != 0; word &= word - 1 {
			key := w<<6 | bits.TrailingZeros64(word)
			i := g.chains.slot(event.Rank(key))
			chain := g.chains.rows[i]
			cut := after(chain, g.stable.Get(key))
			if cut == 0 {
				continue
			}
			if cut == len(chain) {
				g.live[w] &^= 1 << (key & 63)
			}
			for j := range cut {
				if chain[j].vc > 0 {
					g.slotFree = append(g.slotFree, chain[j].vc)
				}
			}
			// Compact in place: the slice keeps its capacity for future
			// appends.
			g.chains.rows[i] = chain[:copy(chain, chain[cut:])]
			g.held -= cut
			ops += int64(cut)
		}
	}
	return ops
}

// Held implements Reducer.
func (g *graph) Held() int { return g.held }

// HeldBytes implements Reducer.
func (g *graph) HeldBytes() int64 {
	b := int64(2*len(g.narrow)+4*len(g.wide)) * int64(g.np<<g.slotShift)
	for _, chain := range g.chains.rows {
		b += int64(cap(chain)) * int64(unsafe.Sizeof(gnode{}))
	}
	return b
}

// HeldFor implements Reducer.
func (g *graph) HeldFor(creator event.Rank) []event.Determinant {
	chain, _ := g.chains.lookup(creator)
	out := make([]event.Determinant, len(chain))
	for i := range chain {
		out[i] = chain[i].h.Det()
	}
	return out
}

// All implements Reducer.
func (g *graph) All() []event.Determinant {
	out := make([]event.Determinant, 0, g.held)
	for w, word := range g.live {
		for ; word != 0; word &= word - 1 {
			key := w<<6 | bits.TrailingZeros64(word)
			for _, n := range g.chains.rows[g.chains.slot(event.Rank(key))] {
				out = append(out, n.h.Det())
			}
		}
	}
	return out
}
