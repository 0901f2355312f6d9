package causal

import (
	"cmp"
	"fmt"
	"math"

	"mpichv/internal/causal/sparsevec"
	"mpichv/internal/event"
)

// graph is the antecedence graph shared by the Manetho and LogOn reducers.
//
// Vertices are reception determinants. Two kinds of edges exist, both
// implicit in the determinant fields:
//
//   - chain edges: event (c, k-1) precedes (c, k) — per-creator total order;
//   - cross edges: d.Parent (the sender's last event before the emission)
//     precedes d.ID.
//
// The causal past of any single event is downward closed per creator, so it
// is exactly a vector clock. Each node's vector clock is computed lazily
// (most nodes never need one; only the latest event of a destination is
// queried, to infer what that destination already knows — the paper's
// "crossing this graph allows to better estimate the events already known
// by a receiver").
//
// Layout. A held determinant costs no heap object and no pointer: chains
// are value slices of gnode in rankTable rows (as Vcausal's sequences are),
// collected by copy-compaction. A node is 32 bytes, a heldDet and vc, its
// clock state: 0 not computed, inFlight on vcOf's stack, > 0 the arena slot
// holding its causal past as np 32-bit words. vcOf visits the chain
// predecessor before the parent, lets a parent absent when the clock is
// computed contribute only its own identity, and never recomputes a clock:
// under an Event Logger the cached value depends on what had been collected
// when it was computed, so any other order or a re-evaluation would move
// the piggybacks and with them every table. The arena costs 4·np bytes per
// held, materialised node, carved lazily from ≈ 32 KB blocks, slots
// recycled when gc collects the node. lookup is index arithmetic on a chain
// without gaps (clock − first clock is the index), else a binary search.
//
// Per-rank tables (knownBy, lastHeld, stable, the knowledge scratch) are
// sparsevec.Vec floor arrays, knownBy holding one only per active peer.
// The *op counts* the reducers charge are computed arithmetically over the
// world size.
type graph struct {
	np int

	// chains holds, per active creator, the live nodes of that creator in
	// clock order (a suffix above the stability horizon).
	chains rankTable[[]gnode]

	// knownBy holds, per active peer, the floors of what that peer is known
	// to hold from direct exchanges (the antecedence inference is applied on
	// top of this at send time).
	knownBy  rankTable[*sparsevec.Vec]
	lastHeld *sparsevec.Vec
	stable   *sparsevec.Vec

	// conflict latches determinant-ID conflicts found by insert (the
	// owning reducer exposes it through TakeIDConflict).
	conflict *conflictLatch

	held int

	// The clock arena: slot s (1-based) is np words of block
	// (s-1)>>slotShift. slots counts the slots ever carved, slotFree the
	// ones gc took back.
	arena     [][]uint32
	slotShift uint
	slots     int32
	slotFree  []int32

	// Scratch, reused across calls (the reducer is a single-process state
	// machine, never shared between goroutines):
	//   knownScratch  backs knowledgeOf's per-send knowledge vector;
	//   frontScratch  backs frontier's result (valid until the next call);
	//   vcStack       backs vcOf's iterative dependency walk.
	knownScratch *sparsevec.Vec
	frontScratch []*gnode
	vcStack      []*gnode
}

// gnode is one antecedence-graph vertex.
type gnode struct {
	h heldDet
	// vc is the state of the node's lazily computed causal past: 0 not
	// computed, inFlight, or the arena slot that holds it.
	vc int32
}

// inFlight marks a node whose clock computation is on vcOf's explicit
// stack; reaching one again means the antecedence edges form a cycle —
// corrupted causality, not a legal graph state.
const inFlight = -1

// arenaBlockWords is the clock arena granularity (32 KB of 32-bit words):
// large enough to amortize the block allocation to noise, small enough not
// to bloat tiny runs. A world wider than a block gets one slot per block.
const arenaBlockWords = 8192

func newGraph(np int) *graph {
	g := &graph{
		np:           np,
		lastHeld:     sparsevec.New(np),
		stable:       sparsevec.New(np),
		knownScratch: sparsevec.New(np),
	}
	for w := 2 * np; 0 < w && w <= arenaBlockWords; w *= 2 {
		g.slotShift++
	}
	return g
}

// clock returns the np words of a computed clock.
//
//mpichv:noalloc
func (g *graph) clock(slot int32) []uint32 {
	s := int(slot - 1)
	off := (s & (1<<g.slotShift - 1)) * g.np
	return g.arena[s>>g.slotShift][off : off+g.np]
}

// newClock returns a free arena slot and its words, which hold whatever
// the slot's previous owner left: the caller overwrites all of them.
//
//mpichv:amortized arena refill: one make per block of slots, and gc recycles the slots of collected nodes
func (g *graph) newClock() (int32, []uint32) {
	if k := len(g.slotFree); k > 0 {
		slot := g.slotFree[k-1]
		g.slotFree = g.slotFree[:k-1]
		return slot, g.clock(slot)
	}
	if int(g.slots)>>g.slotShift == len(g.arena) {
		g.arena = append(g.arena, make([]uint32, g.np<<g.slotShift))
	}
	g.slots++
	return g.slots, g.clock(g.slots)
}

// lookup returns the held node with the given event ID, or nil. The
// pointer is into the creator's chain: valid until the next insert or gc.
//
//mpichv:noalloc
func (g *graph) lookup(id event.EventID) *gnode {
	chain, _ := g.chains.lookup(id.Creator)
	if len(chain) == 0 {
		return nil
	}
	if i := clockIndex(chain, uint64(chain[0].h.clock), uint64(chain[len(chain)-1].h.clock), id.Clock, cmpNodeClock); i >= 0 {
		return &chain[i]
	}
	return nil
}

func cmpNodeClock(n gnode, clock uint64) int { return cmp.Compare(uint64(n.h.clock), clock) }

// insert adds d to the graph if it is neither held nor stable. The returned
// op count is the raw structural cost (lookups + append); callers scale it
// by their protocol's per-event factor.
func (g *graph) insert(d event.Determinant) (inserted bool, ops int64) {
	c := d.ID.Creator
	if d.ID.Clock <= g.lastHeld.Get(int(c)) || d.ID.Clock <= g.stable.Get(int(c)) {
		// Duplicate or already stable. A copy still in the graph is
		// compared against the incoming content: a mismatch means the
		// creator re-created this ID after a regressed recovery — caught
		// here, at merge time, before the aliased antecedence edges can
		// close a cycle (see TakeIDConflict).
		if g.conflict != nil {
			if n := g.lookup(d.ID); n != nil && conflicts(n.h.det(), d) {
				g.conflict.latch(n.h.det(), d)
			}
		}
		return false, 1
	}
	chain := g.chains.row(c)
	*chain = append(*chain, gnode{h: pack(d)})
	g.lastHeld.SetMax(int(c), d.ID.Clock)
	g.held++
	return true, 3
}

// vcOf returns the vector clock (causal past) of n, computing and caching it
// on demand. The computation walks antecedence edges iteratively so chains
// of any length cannot overflow the Go stack.
//
//mpichv:amortized the walk stack grows to the longest dependency path once and is reused; each clock is computed once, into an arena slot
func (g *graph) vcOf(n *gnode) []uint32 {
	if n.vc > 0 {
		return g.clock(n.vc)
	}
	n.vc = inFlight
	stack := append(g.vcStack[:0], n)
	// Dependency pushes guard against antecedence cycles: a legal causal
	// graph is a DAG, but determinant IDs re-created by an incarnation
	// that restored regressed state (an undetected determinant loss under
	// concurrent failures) can alias old and new events, closing a cycle.
	// Walking one would grow the stack forever — fail loudly instead; the
	// run is already causally corrupt.
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		chainPred := g.lookup(event.EventID{Creator: cur.h.creator, Clock: uint64(cur.h.clock) - 1})
		if chainPred != nil && chainPred.vc <= 0 {
			if chainPred.vc == inFlight {
				panic(antecedenceCycle(chainPred))
			}
			chainPred.vc = inFlight
			stack = append(stack, chainPred)
			continue
		}
		var parent *gnode
		if cur.h.parentClock != 0 {
			parent = g.lookup(event.EventID{Creator: cur.h.parentCreator, Clock: uint64(cur.h.parentClock)})
		}
		if parent != nil && parent.vc <= 0 {
			if parent.vc == inFlight {
				panic(antecedenceCycle(parent))
			}
			parent.vc = inFlight
			stack = append(stack, parent)
			continue
		}
		slot, vc := g.newClock()
		if chainPred != nil {
			copy(vc, g.clock(chainPred.vc))
		} else {
			clear(vc)
		}
		if parent != nil {
			for c, f := range g.clock(parent.vc) {
				vc[c] = max(vc[c], f)
			}
		} else if cur.h.parentClock != 0 {
			// Parent was garbage collected (stable) or never held: the only
			// safe knowledge it contributes is its own identity.
			vc[cur.h.parentCreator] = max(vc[cur.h.parentCreator], cur.h.parentClock)
		}
		// The node's own entry: always above anything its antecedents know
		// of this creator (an event cannot be in its own causal past).
		vc[cur.h.creator] = max(vc[cur.h.creator], cur.h.clock)
		cur.vc = slot
		stack = stack[:len(stack)-1]
	}
	g.vcStack = stack
	return g.clock(n.vc)
}

// antecedenceCycle builds the diagnostic for a cycle found by vcOf (cold
// path, kept out of the walk so the hot loop allocates nothing).
func antecedenceCycle(n *gnode) string {
	return fmt.Sprintf("causal: antecedence cycle at %v — determinant IDs re-created after a regressed recovery (lost determinants)", n.h.det().ID)
}

// knowledgeOf returns, per creator, the highest clock dst is believed to
// hold: the max of direct-exchange knowledge, the stability horizon and —
// the antecedence inference — the causal past of dst's latest event held
// locally. Entry dst is infinite: a process knows its own events. The
// returned vector is scratch, valid until the next call.
func (g *graph) knowledgeOf(dst event.Rank) *sparsevec.Vec {
	known := g.knownScratch
	if kb, ok := g.knownBy.lookup(dst); ok && kb != nil {
		known.CopyFrom(kb)
	} else {
		known.Reset(g.np)
	}
	known.MaxFrom(g.stable)
	if chain, _ := g.chains.lookup(dst); len(chain) > 0 {
		for c, f := range g.vcOf(&chain[len(chain)-1]) {
			known.SetMax(c, uint64(f))
		}
	}
	known.SetMax(int(dst), math.MaxUint64)
	return known
}

// knownVec returns dst's direct-exchange knowledge floors, creating them on
// first contact.
//
//mpichv:amortized one vector allocation per newly active peer, reused for the rest of the run
func (g *graph) knownVec(dst event.Rank) *sparsevec.Vec {
	known := g.knownBy.row(dst)
	if *known == nil {
		*known = sparsevec.New(g.np)
	}
	return *known
}

// frontier returns the held determinants above dst's inferred knowledge, in
// factored order (grouped by creator, clocks ascending), along with the
// number of creator chains the cost model probes (one per world rank — the
// sparse walk only visits active chains, the probe count is arithmetic).
// It commits the result to knownBy[dst]. The returned slice is scratch,
// valid until the next frontier call.
func (g *graph) frontier(dst event.Rank) (out []*gnode, creators int64) {
	out = g.frontScratch[:0]
	known := g.knowledgeOf(dst)
	creators = int64(g.np)
	var kb *sparsevec.Vec
	for i, key := range g.chains.keys {
		chain := g.chains.rows[i]
		if len(chain) == 0 || event.Rank(key) == dst {
			continue
		}
		threshold := known.Get(int(key))
		// Steady state: the whole chain already known — one tail comparison
		// instead of a binary search.
		if uint64(chain[len(chain)-1].h.clock) <= threshold {
			continue
		}
		lo, hi := 0, len(chain)
		for lo < hi {
			mid := (lo + hi) / 2
			if uint64(chain[mid].h.clock) > threshold {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		for j := lo; j < len(chain); j++ {
			out = append(out, &chain[j])
		}
		if kb == nil {
			kb = g.knownVec(dst)
		}
		kb.SetMax(int(key), uint64(chain[len(chain)-1].h.clock))
	}
	g.frontScratch = out[:0]
	return out, creators
}

// mergeLearn updates direct-exchange knowledge after receiving ds from src.
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

// gc removes nodes at or below the acknowledged vector.
func (g *graph) gc(vec *sparsevec.Vec) int64 {
	if vec == nil {
		return 0
	}
	ops := int64(0)
	i := 0 // cursor into chains: Range and the table both ascend by rank
	vec.Range(func(c int, f uint64) bool {
		if f <= g.stable.Get(c) {
			return true
		}
		g.stable.SetMax(c, f)
		var ok bool
		if i, ok = g.chains.seek(i, event.Rank(c)); !ok {
			return true
		}
		chain := g.chains.rows[i]
		cut := 0
		for cut < len(chain) && uint64(chain[cut].h.clock) <= f {
			if chain[cut].vc > 0 {
				g.slotFree = append(g.slotFree, chain[cut].vc)
			}
			cut++
		}
		if cut > 0 {
			// Compact in place: the slice keeps its capacity for future
			// appends.
			g.chains.rows[i] = chain[:copy(chain, chain[cut:])]
			g.held -= cut
			ops += int64(cut)
		}
		return true
	})
	return ops
}

func (g *graph) heldFor(creator event.Rank) []event.Determinant {
	chain, _ := g.chains.lookup(creator)
	out := make([]event.Determinant, len(chain))
	for i := range chain {
		out[i] = chain[i].h.det()
	}
	return out
}

func (g *graph) all() []event.Determinant {
	out := make([]event.Determinant, 0, g.held)
	for _, chain := range g.chains.rows {
		for i := range chain {
			out = append(out, chain[i].h.det())
		}
	}
	return out
}
