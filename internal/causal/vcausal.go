package causal

import (
	"cmp"

	"mpichv/internal/causal/sparsevec"
	"mpichv/internal/event"
)

// Vcausal is the paper's light-computation protocol: one ordered determinant
// sequence per creator plus, for every peer, the highest clock of each
// creator's events that peer is known to hold (learned only through direct
// exchanges with that peer). No antecedence information is kept, so the
// reduction is weaker than the graph-based protocols but every operation is
// a sequence scan or append.
//
// Per-rank tables hold rows only for active creators and peers (rankTable
// rows, each peer's knowledge a sparsevec.Vec floor array), while the *op
// counts* — the protocol's virtual cost model — charge one probe per world
// rank.
type Vcausal struct {
	conflictLatch

	self event.Rank
	np   int

	// seqs holds, per active creator, the unstable determinants of that
	// creator in clock order (always a contiguous suffix of the creator's
	// event history above the stability horizon).
	seqs rankTable[[]heldDet]
	// knownBy holds, per active peer, the per-creator floors of what that
	// peer is known to hold, from what we sent it and what it sent us.
	knownBy rankTable[*sparsevec.Vec]
	// lastHeld[c] is the highest clock of c's events ever appended (dedup).
	lastHeld *sparsevec.Vec
	// stable[c] is the Event Logger's acknowledged clock for creator c.
	stable *sparsevec.Vec

	held int

	// cutScratch is the emission plan of the current send, parallel to the
	// seqs table: the index of the first determinant of each active chain to
	// piggyback (len(chain) when none). Filled by planFor, consumed by
	// emitTo.
	cutScratch []int
}

// NewVcausal returns an empty Vcausal reducer for rank self of np processes.
func NewVcausal(self event.Rank, np int) *Vcausal {
	return &Vcausal{
		self:     self,
		np:       np,
		lastHeld: sparsevec.New(np),
		stable:   sparsevec.New(np),
	}
}

// Name implements Reducer.
func (v *Vcausal) Name() string { return "vcausal" }

// AddLocal implements Reducer.
//
//mpichv:noalloc
func (v *Vcausal) AddLocal(d event.Determinant) int64 {
	return v.append(d)
}

//mpichv:noalloc
func (v *Vcausal) append(d event.Determinant) int64 {
	c := d.ID.Creator
	if d.ID.Clock <= v.lastHeld.Get(int(c)) || d.ID.Clock <= v.stable.Get(int(c)) {
		// Duplicate or already stable. A still-held copy is compared
		// against the incoming content: a mismatch means the creator
		// re-created this ID after a regressed recovery (see
		// TakeIDConflict). Stable (collected) copies can no longer be
		// compared.
		if seq, _ := v.seqs.lookup(c); len(seq) > 0 {
			if i := clockIndex(seq, uint64(seq[0].clock), uint64(seq[len(seq)-1].clock), d.ID.Clock, cmpHeldClock); i >= 0 && conflicts(seq[i].det(), d) {
				v.latch(seq[i].det(), d)
			}
		}
		return 1 // one comparison on the fast path
	}
	seq := v.seqs.row(c)
	*seq = append(*seq, pack(d))
	v.lastHeld.SetMax(int(c), d.ID.Clock)
	v.held++
	return 1
}

func cmpHeldClock(h heldDet, clock uint64) int { return cmp.Compare(uint64(h.clock), clock) }

// Merge implements Reducer. Determinants from src also teach us what src
// holds (it necessarily held what it piggybacked).
//
//mpichv:noalloc
func (v *Vcausal) Merge(src event.Rank, ds []event.Determinant) int64 {
	if len(ds) == 0 {
		return 0
	}
	ops := int64(0)
	known := v.knownVec(src)
	for _, d := range ds {
		ops += v.append(d)
		known.SetMax(int(d.ID.Creator), d.ID.Clock)
	}
	return ops
}

// knownVec returns src's knowledge floors, creating them on first contact.
//
//mpichv:amortized one vector allocation per newly active peer, reused for the rest of the run
func (v *Vcausal) knownVec(src event.Rank) *sparsevec.Vec {
	known := v.knownBy.row(src)
	if *known == nil {
		*known = sparsevec.New(v.np)
	}
	return *known
}

// AppendPiggybackFor implements Reducer: every held determinant newer than
// what dst is known to hold (and newer than the stability horizon),
// grouped by creator in clock order — the factored emission order. The
// held-size term models the management of the growing per-creator
// sequences: the paper's Figure 8a shows Vcausal's send-side time growing
// roughly tenfold without an Event Logger, so the cost cannot be
// independent of state size.
//
//mpichv:noalloc
func (v *Vcausal) AppendPiggybackFor(dst event.Rank, buf []event.Determinant) ([]event.Determinant, int64) {
	_, ops := v.planFor(dst)
	return v.emitTo(dst, buf), ops
}

// planFor computes the emission plan for one send to dst — cutScratch[i]
// is the first index of the i-th active chain to piggyback — and the total
// count and op cost. It must not mutate reducer knowledge: the commitment
// to knownBy happens in emitTo, exactly once per send.
//
// The cost model charges one probe per world rank (a dense scan, as the
// protocol is described in the paper); the sparse walk only visits active
// chains, so the probe term is added arithmetically.
//
//mpichv:noalloc
func (v *Vcausal) planFor(dst event.Rank) (total int, ops int64) {
	ops = int64(v.held)/8 + int64(v.np)
	if cap(v.cutScratch) < v.seqs.size() {
		//lint:allow noalloc the plan scratch grows to the active-creator count once and is reused for every later send
		v.cutScratch = make([]int, v.seqs.size())
	}
	v.cutScratch = v.cutScratch[:v.seqs.size()]
	known, _ := v.knownBy.lookup(dst)
	for i, key := range v.seqs.keys {
		seq := v.seqs.rows[i]
		v.cutScratch[i] = len(seq)
		if event.Rank(key) == dst || len(seq) == 0 {
			continue // dst knows its own events by definition
		}
		threshold := v.stable.Get(int(key))
		if known != nil {
			if t := known.Get(int(key)); t > threshold {
				threshold = t
			}
		}
		// Steady state: everything already known — one tail comparison
		// instead of a binary search.
		if uint64(seq[len(seq)-1].clock) <= threshold {
			continue
		}
		// The sequence is clock-ordered: binary search for the first event
		// above the threshold, then emit the suffix.
		lo, hi := 0, len(seq)
		for lo < hi {
			mid := (lo + hi) / 2
			if uint64(seq[mid].clock) > threshold {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		v.cutScratch[i] = lo
		total += len(seq) - lo
		ops += int64(len(seq) - lo)
	}
	return total, ops
}

// emitTo appends the planned suffixes to buf and commits the optimistic
// assumption that dst now holds them.
//
//mpichv:noalloc
func (v *Vcausal) emitTo(dst event.Rank, buf []event.Determinant) []event.Determinant {
	var known *sparsevec.Vec
	for i, key := range v.seqs.keys {
		seq := v.seqs.rows[i]
		if lo := v.cutScratch[i]; lo < len(seq) {
			buf = appendDets(buf, seq[lo:])
			if known == nil {
				known = v.knownVec(dst)
			}
			known.SetMax(int(key), uint64(seq[len(seq)-1].clock))
		}
	}
	return buf
}

// Stable implements Reducer.
//
//mpichv:noalloc
func (v *Vcausal) Stable(vec *sparsevec.Vec) int64 {
	if vec == nil {
		return 0
	}
	ops := int64(0)
	i := 0 // cursor into seqs: Range and the table both ascend by rank
	//lint:allow noalloc the callback only captures v, the cursor and the local op counter, never escapes Range, and stays stack-allocated
	vec.Range(func(c int, f uint64) bool {
		if f <= v.stable.Get(c) {
			return true
		}
		v.stable.SetMax(c, f)
		var ok bool
		if i, ok = v.seqs.seek(i, event.Rank(c)); !ok {
			return true
		}
		seq := v.seqs.rows[i]
		cut := 0
		for cut < len(seq) && uint64(seq[cut].clock) <= f {
			cut++
		}
		if cut > 0 {
			// Compact in place; the slice keeps its capacity for reuse.
			kept := copy(seq, seq[cut:])
			v.seqs.rows[i] = seq[:kept]
			v.held -= cut
			ops += int64(cut)
		}
		return true
	})
	return ops
}

// Held implements Reducer.
func (v *Vcausal) Held() int { return v.held }

// HeldFor implements Reducer.
func (v *Vcausal) HeldFor(creator event.Rank) []event.Determinant {
	seq, _ := v.seqs.lookup(creator)
	return appendDets(make([]event.Determinant, 0, len(seq)), seq)
}

// All implements Reducer.
func (v *Vcausal) All() []event.Determinant {
	out := make([]event.Determinant, 0, v.held)
	for _, seq := range v.seqs.rows {
		out = appendDets(out, seq)
	}
	return out
}

// PiggybackBytes implements Reducer (factored encoding).
func (v *Vcausal) PiggybackBytes(ds []event.Determinant) int {
	return event.FactoredSize(ds)
}
