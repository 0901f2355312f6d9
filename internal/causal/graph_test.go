package causal

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"mpichv/internal/causal/sparsevec"
	"mpichv/internal/event"
)

// TestGraphVectorClockMatchesGroundTruth drives random causally-valid
// insertions into the antecedence graph and checks the lazily computed
// vector clocks against independently tracked ground truth.
func TestGraphVectorClockMatchesGroundTruth(t *testing.T) {
	const np = 6
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		g := newGraph(np)
		clock := make([]uint64, np)
		lamport := make([]uint64, np)
		lastEvt := make([]event.EventID, np)
		truth := make(map[event.EventID][]uint64)
		vcNow := make([][]uint64, np)
		for i := range vcNow {
			vcNow[i] = make([]uint64, np)
		}
		for step := 0; step < 120; step++ {
			src := r.Intn(np)
			dst := r.Intn(np - 1)
			if dst >= src {
				dst++
			}
			// dst receives from src: new event of creator dst.
			clock[dst]++
			if lamport[src] > lamport[dst] {
				lamport[dst] = lamport[src]
			}
			lamport[dst]++
			d := event.Determinant{
				ID:      event.EventID{Creator: event.Rank(dst), Clock: clock[dst]},
				Sender:  event.Rank(src),
				SendSeq: clock[dst],
				Parent:  lastEvt[src],
				Lamport: lamport[dst],
			}
			// Ground truth: dst's knowledge absorbs src's.
			for c := 0; c < np; c++ {
				if vcNow[src][c] > vcNow[dst][c] {
					vcNow[dst][c] = vcNow[src][c]
				}
			}
			vcNow[dst][dst] = clock[dst]
			truth[d.ID] = append([]uint64(nil), vcNow[dst]...)
			lastEvt[dst] = d.ID

			g.insert(d)
		}
		// Every node's lazily computed vector clock must equal ground truth.
		for id, want := range truth {
			n := g.lookup(id)
			if n == nil {
				t.Fatalf("trial %d: node %v missing", trial, id)
			}
			got := clockOf(&g, n)
			for c := 0; c < np; c++ {
				if got[c] != want[c] {
					t.Fatalf("trial %d: vc(%v)[%d] = %d, want %d", trial, id, c, got[c], want[c])
				}
			}
		}
	}
}

// TestGraphGCKeepsSuffixesIntact garbage collects random stable prefixes
// and verifies chains stay contiguous suffixes with a consistent index.
func TestGraphGCKeepsSuffixesIntact(t *testing.T) {
	const np = 4
	g := newGraph(np)
	for c := 0; c < np; c++ {
		for k := uint64(1); k <= 20; k++ {
			g.insert(event.Determinant{
				ID: event.EventID{Creator: event.Rank(c), Clock: k}, Sender: 1, SendSeq: k, Lamport: k,
			})
		}
	}
	g.Stable(stableVec(5, 20, 0, 13))
	wantHeld := 15 + 0 + 20 + 7
	if g.held != wantHeld {
		t.Fatalf("held = %d, want %d", g.held, wantHeld)
	}
	for c := 0; c < np; c++ {
		chain, _ := g.chains.lookup(event.Rank(c))
		for i := range chain {
			n := &chain[i]
			if i > 0 && n.h.Clock != chain[i-1].h.Clock+1 {
				t.Fatalf("chain %d not contiguous at %d", c, i)
			}
			if id := n.h.Det().ID; g.lookup(id) != n {
				t.Fatalf("lookup inconsistent for %v", id)
			}
		}
	}
	// GC'd ids must no longer resolve.
	if g.lookup(event.EventID{Creator: 0, Clock: 5}) != nil {
		t.Fatal("collected node still resolvable")
	}
}

// oracle is the reference the arena-backed graph is compared against: the
// same lazily cached clocks, on maps and recursion. A clock is computed
// once, from the nodes held at that moment; an absent parent contributes
// only its own identity; collecting a node drops its clock and leaves the
// clocks computed from it as they are.
type oracle struct {
	np       int
	nodes    map[event.EventID]event.Determinant
	clocks   map[event.EventID][]uint64
	stable   []uint64
	computed int
}

func (o *oracle) clock(id event.EventID) []uint64 {
	if vc, ok := o.clocks[id]; ok {
		return vc
	}
	vc := make([]uint64, o.np)
	pred := event.EventID{Creator: id.Creator, Clock: id.Clock - 1}
	if _, ok := o.nodes[pred]; ok {
		copy(vc, o.clock(pred))
	}
	if parent := o.nodes[id].Parent; !parent.Zero() {
		if _, ok := o.nodes[parent]; ok {
			for c, f := range o.clock(parent) {
				vc[c] = max(vc[c], f)
			}
		}
		vc[parent.Creator] = max(vc[parent.Creator], parent.Clock)
	}
	vc[id.Creator] = max(vc[id.Creator], id.Clock)
	o.clocks[id] = vc
	o.computed++
	return vc
}

func (o *oracle) gc(c event.Rank, f uint64) {
	for k := o.stable[c] + 1; k <= f; k++ {
		id := event.EventID{Creator: c, Clock: k}
		delete(o.nodes, id)
		delete(o.clocks, id)
	}
	o.stable[c] = max(o.stable[c], f)
}

// TestGraphClocksMatchOracleUnderGC drives random causally valid
// insertions — some determinants never reach the graph, leaving chains with
// gaps and parents never held — with collections of random stable prefixes
// interleaved. At the moments a send would cross the graph it queries the
// clock of the destination's latest held event, as frontier does, and
// checks every answer against the oracle. Enough is collected that clocks
// are computed into recycled slots, which still hold their previous owner's
// words.
//
// In the last six trials the clocks cross 65,535, the largest value a
// narrow arena word holds, mid-trial: every creator's in five of them, and
// in the last only rank 0's, whose determinants never reach the graph, so
// only parent clocks cross. The arena must widen once, after clocks were
// computed and slots recycled, and every clock stay exact.
func TestGraphClocksMatchOracleUnderGC(t *testing.T) {
	const trials, boundary, parentOnly = 36, 30, 35
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < trials; trial++ {
		np := 4 + r.Intn(37)
		g := newGraph(np)
		o := &oracle{np: np, nodes: map[event.EventID]event.Determinant{}, clocks: map[event.EventID][]uint64{}, stable: make([]uint64, np)}
		clock := make([]uint64, np)
		for c := range clock {
			// Creator c crosses 65,535 after about 200 to 400 steps.
			if trial == parentOnly && c == 0 || trial >= boundary && trial < parentOnly {
				clock[c] = math.MaxUint16 - uint64(200/np+r.Intn(200/np+1))
				o.stable[c] = clock[c]
			}
		}
		recycled, widenedAt := 0, -1
		lastEvt := make([]event.EventID, np)
		lastHeld := make([]event.EventID, np)
		check := func(dst int) {
			t.Helper()
			chain, _ := g.chains.lookup(event.Rank(dst))
			latest := lastHeld[dst]
			if _, held := o.nodes[latest]; !held || latest.Zero() {
				if len(chain) > 0 {
					t.Fatalf("trial %d (np %d): rank %d's chain holds %v, want none", trial, np, dst, chain[len(chain)-1].h.Det().ID)
				}
				return
			}
			n := &chain[len(chain)-1]
			if n.h.Det().ID != latest {
				t.Fatalf("trial %d (np %d): rank %d's latest held event is %v, want %v", trial, np, dst, n.h.Det().ID, latest)
			}
			if got, want := clockOf(&g, n), o.clock(latest); !slices.Equal(got, want) {
				t.Fatalf("trial %d (np %d): vc(%v) = %v, want %v", trial, np, latest, got, want)
			}
		}
		for step := 0; step < 600; step++ {
			src, dst := r.Intn(np), r.Intn(np-1)
			if dst >= src {
				dst++
			}
			clock[dst]++
			d := event.Determinant{
				ID:      event.EventID{Creator: event.Rank(dst), Clock: clock[dst]},
				Sender:  event.Rank(src),
				SendSeq: clock[dst],
				Parent:  lastEvt[src],
				Lamport: uint64(step + 1),
			}
			lastEvt[dst] = d.ID
			if r.Intn(8) > 0 && (trial != parentOnly || dst != 0) {
				held, narrow := g.held, g.wide == nil
				if g.insert(d); g.held > held {
					o.nodes[d.ID], lastHeld[dst] = d, d.ID
				}
				if narrow && g.wide != nil {
					widenedAt = step
					if g.slots == 0 || recycled == 0 {
						t.Fatalf("trial %d (np %d): widened at step %d with %d slots carved and %d recycled, want both", trial, np, step, g.slots, recycled)
					}
				}
			}
			if step%3 == 0 {
				check(r.Intn(np))
			}
			if step%12 == 11 {
				ack := sparsevec.New(np)
				for k := r.Intn(np); k >= 0; k-- {
					c := r.Intn(np)
					if f := o.stable[c] + uint64(r.Intn(int(clock[c]-o.stable[c])+1)); f > o.stable[c] {
						ack.SetMax(c, f)
						o.gc(event.Rank(c), f)
					}
				}
				free := len(g.slotFree)
				g.Stable(ack)
				recycled += len(g.slotFree) - free
			}
		}
		if (widenedAt >= 0) != (trial >= boundary) {
			t.Fatalf("trial %d (np %d): widened at step %d, want a widening only in the boundary trials", trial, np, widenedAt)
		}
		for id := range o.nodes {
			if got, want := clockOf(&g, g.lookup(id)), o.clock(id); !slices.Equal(got, want) {
				t.Fatalf("trial %d (np %d): vc(%v) = %v, want %v", trial, np, id, got, want)
			}
		}
		if g.held != len(o.nodes) {
			t.Fatalf("trial %d: held = %d, want %d", trial, g.held, len(o.nodes))
		}
		if int(g.slots) > o.computed/2 {
			t.Fatalf("trial %d: %d arena slots carved for %d clocks: slots are not being recycled", trial, g.slots, o.computed)
		}
	}
}

// clockOf returns n's clock, computed at the arena's current width as
// frontier computes it, as the oracle's 64-bit words.
func clockOf(g *graph, n *gnode) []uint64 {
	if g.wide != nil {
		return words(vcOf(g, &g.wide, n))
	}
	return words(vcOf(g, &g.narrow, n))
}

func words[W uint16 | uint32](vc []W) []uint64 {
	out := make([]uint64, len(vc))
	for i, f := range vc {
		out[i] = uint64(f)
	}
	return out
}

// TestGraphAntecedenceCycleLatches closes a two-node cycle (each event
// names the other as its parent, as IDs re-created after a regressed
// recovery can) and requires vcOf to latch the node it meets twice as an
// ID conflict, finish with a clock for both nodes and none left in flight,
// and allocate nothing once warm. Nodes later created in the same chain
// positions start uncomputed.
func TestGraphAntecedenceCycleLatches(t *testing.T) {
	g := newGraph(2)
	a, b := event.EventID{Creator: 0, Clock: 1}, event.EventID{Creator: 1, Clock: 1}
	g.insert(event.Determinant{ID: a, Sender: 1, SendSeq: 1, Parent: b, Lamport: 1})
	g.insert(event.Determinant{ID: b, Sender: 0, SendSeq: 1, Parent: a, Lamport: 1})
	if got := clockOf(&g, g.lookup(a)); got[0] != 1 || got[1] != 1 {
		t.Fatalf("vc(%v) = %v, want [1 1]", a, got)
	}
	if d, ok := g.TakeIDConflict(); !ok || d.ID != a {
		t.Fatalf("latched %v (ok %v), want %v, the node the walk met twice", d.ID, ok, a)
	}
	for _, id := range []event.EventID{a, b} {
		if vc := g.lookup(id).vc; vc <= 0 {
			t.Fatalf("node %v left with clock state %d, want a computed clock", id, vc)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for _, id := range []event.EventID{a, b} {
			n := g.lookup(id)
			g.slotFree = append(g.slotFree, n.vc)
			n.vc = 0
		}
		vcOf(&g, &g.narrow, g.lookup(a))
		if _, ok := g.TakeIDConflict(); !ok {
			t.Fatal("a warm cycle walk latched nothing")
		}
	}); allocs != 0 {
		t.Fatalf("a warm cycle walk allocates %.1f objects, want 0", allocs)
	}
	g.Stable(stableVec(1, 1))
	a.Clock, b.Clock = 2, 2
	g.insert(event.Determinant{ID: a, Sender: 1, SendSeq: 2, Lamport: 2})
	g.insert(event.Determinant{ID: b, Sender: 0, SendSeq: 2, Parent: a, Lamport: 3})
	if g.lookup(a).vc != 0 || g.lookup(b).vc != 0 {
		t.Fatal("a node created where an in-flight one was collected must start uncomputed")
	}
	if got := clockOf(&g, g.lookup(b)); got[0] != 2 || got[1] != 2 {
		t.Fatalf("vc(%v) = %v, want [2 2]", b, got)
	}
}

// TestStoreOrderAcrossWords activates creators out of rank order across
// 64-rank boundaries of a 130-rank world — descending first, then
// interleaved — with gapped chains, and requires every read of the store to
// equal a naive reference in ascending creator order: each piggyback,
// All and HeldFor. An acknowledgement that empties some chains and cuts
// others inside a gap must count as ops exactly the nodes it collected, and
// chains active again after it must come back in rank order.
func TestStoreOrderAcrossWords(t *testing.T) {
	const np, src = 130, event.Rank(3)
	for _, name := range Names() {
		r := New(name, 0, np)
		held := make([][]uint64, np) // reference: held clocks per creator
		stable := make([]uint64, np)
		sent := map[event.Rank][]uint64{} // highest clock sent per dst and creator
		add := func(c event.Rank, clocks ...uint64) {
			var ds []event.Determinant
			for _, k := range clocks {
				// Lamport values rise with the creator, so LogOn's
				// emission order is the factored order too.
				ds = append(ds, event.Determinant{ID: event.EventID{Creator: c, Clock: k}, Sender: src, SendSeq: k, Lamport: uint64(c)<<16 | k})
				held[c] = append(held[c], k)
			}
			r.Merge(src, ds)
		}
		want := func(skip event.Rank, floor []uint64) []event.EventID {
			var out []event.EventID
			for c, clocks := range held {
				for _, k := range clocks {
					if event.Rank(c) != skip && k > stable[c] && (floor == nil || k > floor[c]) {
						out = append(out, event.EventID{Creator: event.Rank(c), Clock: k})
					}
				}
			}
			return out
		}
		idsOf := func(ds []event.Determinant) []event.EventID {
			var out []event.EventID
			for _, d := range ds {
				out = append(out, d.ID)
			}
			return out
		}
		check := func(step string, dsts ...event.Rank) {
			t.Helper()
			for _, dst := range dsts {
				floor := sent[dst]
				if floor == nil {
					floor = make([]uint64, np)
					sent[dst] = floor
				}
				exp := want(dst, floor)
				pb, _ := r.AppendPiggybackFor(dst, nil)
				if got := idsOf(pb); !slices.Equal(got, exp) {
					t.Fatalf("%s %s: piggyback to %d = %v, want %v", name, step, dst, got, exp)
				}
				for _, id := range exp {
					floor[id.Creator] = max(floor[id.Creator], id.Clock)
				}
			}
			if got, exp := idsOf(r.All()), want(event.NoRank, nil); !slices.Equal(got, exp) {
				t.Fatalf("%s %s: All = %v, want %v", name, step, got, exp)
			}
			for c := range held {
				var exp []uint64
				for _, k := range held[c] {
					if k > stable[c] {
						exp = append(exp, k)
					}
				}
				var got []uint64
				for _, d := range r.HeldFor(event.Rank(c)) {
					if d.ID.Creator != event.Rank(c) {
						t.Fatalf("%s %s: HeldFor(%d) returned %v", name, step, c, d.ID)
					}
					got = append(got, d.ID.Clock)
				}
				if !slices.Equal(got, exp) {
					t.Fatalf("%s %s: HeldFor(%d) = %v, want %v", name, step, c, got, exp)
				}
			}
		}

		// Descending activation, across both word boundaries.
		add(129, 1, 2, 4, 7, 8)
		add(128, 3)
		add(100, 1, 2, 3)
		add(65, 2, 5)
		add(64, 1)
		add(63, 1, 2, 3, 9)
		add(40, 1)
		add(1, 1, 3)
		add(0, 4, 5)
		check("descending", 1, 99)
		// Interleaved: new creators on both sides of each boundary, and
		// existing chains grown with gaps.
		add(127, 1)
		add(2, 1, 2)
		add(66, 1, 4)
		add(129, 9, 12)
		add(62, 2)
		add(0, 6)
		add(64, 3)
		check("interleaved", 1, 64, 128)

		// An acknowledgement that empties 128, 65 and 2, cuts 129 and 63
		// inside a gap and 0 at a node, and leaves the rest.
		ack := sparsevec.New(np)
		for c, f := range map[int]uint64{129: 5, 128: 3, 65: 9, 63: 8, 2: 2, 0: 5, 100: 0} {
			ack.SetMax(c, f)
		}
		collected := 0
		for c := range held {
			for _, k := range held[c] {
				if k > stable[c] && k <= ack.Get(c) {
					collected++
				}
			}
			stable[c] = max(stable[c], ack.Get(c))
		}
		before := r.Held()
		if ops := r.Stable(ack); ops != int64(collected) || before-r.Held() != collected {
			t.Fatalf("%s: Stable reported %d ops and dropped %d held, want %d collected", name, ops, before-r.Held(), collected)
		}
		check("after the ack", 99)

		// Emptied chains active again, and a new creator between them.
		add(128, 7)
		add(2, 3)
		add(99, 1)
		add(65, 11)
		check("reactivated", 1, 64, 99, 128, 5)
	}
}
