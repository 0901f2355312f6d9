// Package sparsevec provides the interval-coded per-creator clock vector
// shared by the causality layers: the piggyback reducers' knowledge and
// stability tables, the Event Logger's stable vector and its
// acknowledgments, and the checkpoint image's channel-sequence floors.
//
// A Vec maps creator ranks to clock floors. Every entry encodes a prefix
// interval: floor f for creator c means "all of c's events with clock in
// [1, f]" — exactly the shape causal message logging produces, because
// per-creator knowledge is downward closed (an acknowledgment or a vector
// clock never has holes below its floor). The representation is therefore a
// sorted run list of (creator, floor) pairs whose cost tracks the number of
// *active* creators, not the world size: an NP=1024 acknowledgment that has
// only ever covered 12 creators carries 12 runs.
//
// Above a density threshold (more than half the world active) the run list
// converts to a plain dense array, so small worlds — where most creators are
// active most of the time — keep the flat-array arithmetic the experiment
// tables were calibrated on. The conversion is one-way until Reset; all
// iteration is in ascending creator order in both forms, so every consumer
// is deterministic regardless of representation.
package sparsevec

// Mode selects the representation policy (see SetModeForTest).
type Mode int

const (
	// ModeAuto densifies a vector once more than half its world is active.
	ModeAuto Mode = iota
	// ModeSparse never densifies (equivalence testing).
	ModeSparse
	// ModeDense densifies on first write (equivalence testing).
	ModeDense
)

// mode is the package-wide representation policy. It is ModeAuto except
// under the sparse↔dense equivalence property tests, which force one
// representation for a whole run and compare observable behaviour.
var mode = ModeAuto

// SetModeForTest forces the representation policy and returns a restore
// function. Only tests may call it; production code always runs ModeAuto.
func SetModeForTest(m Mode) (restore func()) {
	prev := mode
	mode = m
	return func() { mode = prev }
}

// Vec is an interval-coded clock vector: creator → highest known clock
// (each entry standing for the prefix interval [1, floor]). The zero value
// is an empty vector of unknown world size that never densifies; Reset
// binds it to a world size. Vecs are single-owner state — like the reducers
// they serve, they are never shared between goroutines.
type Vec struct {
	np int

	// Sparse form: parallel arrays sorted by creator, floors all nonzero.
	creators []int32
	floors   []uint64

	// Dense form (non-nil once densified): plain per-creator floors.
	dense []uint64
}

// New returns an empty vector for a world of np creators.
func New(np int) *Vec {
	v := &Vec{}
	v.Reset(np)
	return v
}

// NP returns the world size the vector is bound to (0 for the zero value).
func (v *Vec) NP() int { return v.np }

// Reset empties the vector and binds it to a world of np creators. Backing
// arrays are kept for reuse, so a pooled vector resets without allocating.
//
//mpichv:noalloc
func (v *Vec) Reset(np int) {
	v.np = np
	v.creators = v.creators[:0]
	v.floors = v.floors[:0]
	if len(v.dense) > 0 && cap(v.dense) >= np && mode != ModeSparse {
		v.dense = v.dense[:np]
		clear(v.dense)
	} else {
		// Drop to the sparse form but keep the buffer's capacity: a pooled
		// vector that densified once must not re-allocate when it densifies
		// again after reuse.
		v.dense = v.dense[:0]
	}
}

// Get returns the floor recorded for creator c (0 when none).
//
//mpichv:noalloc
func (v *Vec) Get(c int) uint64 {
	if len(v.dense) > 0 {
		return v.dense[c]
	}
	if i, ok := v.find(int32(c)); ok {
		return v.floors[i]
	}
	return 0
}

// find binary-searches the sparse run list for creator c.
//
//mpichv:noalloc
func (v *Vec) find(c int32) (int, bool) {
	lo, hi := 0, len(v.creators)
	for lo < hi {
		mid := (lo + hi) / 2
		if v.creators[mid] < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(v.creators) && v.creators[lo] == c
}

// SetMax raises creator c's floor to f if it is higher than the recorded
// one. Floors only ever grow (knowledge is monotone), so this is the single
// mutation primitive.
//
//mpichv:amortized run-list growth: one append per newly active creator, updates in place thereafter
func (v *Vec) SetMax(c int, f uint64) {
	if f == 0 {
		return
	}
	if len(v.dense) > 0 {
		if f > v.dense[c] {
			v.dense[c] = f
		}
		return
	}
	// Append fast path: runs arrive mostly in ascending creator order.
	if n := len(v.creators); n == 0 || v.creators[n-1] < int32(c) {
		v.creators = append(v.creators, int32(c))
		v.floors = append(v.floors, f)
		v.maybeDensify()
		return
	}
	i, ok := v.find(int32(c))
	if ok {
		if f > v.floors[i] {
			v.floors[i] = f
		}
		return
	}
	v.creators = append(v.creators, 0)
	v.floors = append(v.floors, 0)
	copy(v.creators[i+1:], v.creators[i:])
	copy(v.floors[i+1:], v.floors[i:])
	v.creators[i] = int32(c)
	v.floors[i] = f
	v.maybeDensify()
}

// maybeDensify converts to the dense form once more than half the world is
// active (ModeAuto). A zero-np vector has no world to measure density
// against and stays sparse.
func (v *Vec) maybeDensify() {
	if v.np == 0 || mode == ModeSparse {
		return
	}
	if mode == ModeAuto && 2*len(v.creators) <= v.np {
		return
	}
	v.densify()
}

// densify switches to the dense representation.
//
//mpichv:amortized one np-length array per vector lifetime, recycled across Reset
func (v *Vec) densify() {
	if cap(v.dense) >= v.np {
		v.dense = v.dense[:v.np]
		clear(v.dense)
	} else {
		v.dense = make([]uint64, v.np)
	}
	for i, c := range v.creators {
		v.dense[c] = v.floors[i]
	}
	v.creators = v.creators[:0]
	v.floors = v.floors[:0]
}

// Active returns the number of creators with a nonzero floor.
func (v *Vec) Active() int {
	if len(v.dense) == 0 {
		return len(v.creators)
	}
	n := 0
	for _, f := range v.dense {
		if f != 0 {
			n++
		}
	}
	return n
}

// Range calls fn for every nonzero entry in ascending creator order,
// stopping early when fn returns false. Both representations iterate in
// the same order, so consumers are representation-independent.
//
//mpichv:noalloc
func (v *Vec) Range(fn func(c int, f uint64) bool) {
	if len(v.dense) > 0 {
		for c, f := range v.dense {
			//lint:allow noalloc the callback is the iteration contract; callers pass non-escaping literals the compiler keeps off the heap
			if f != 0 && !fn(c, f) {
				return
			}
		}
		return
	}
	for i, c := range v.creators {
		//lint:allow noalloc the callback is the iteration contract; callers pass non-escaping literals the compiler keeps off the heap
		if !fn(int(c), v.floors[i]) {
			return
		}
	}
}

// CopyFrom makes v an exact copy of o (representation included), reusing
// v's backing arrays.
//
//mpichv:noalloc
func (v *Vec) CopyFrom(o *Vec) {
	v.np = o.np
	if len(o.dense) > 0 {
		if cap(v.dense) >= len(o.dense) {
			v.dense = v.dense[:len(o.dense)]
		} else {
			//lint:allow noalloc dense buffer grows to the world size once per vector and is reused thereafter
			v.dense = make([]uint64, len(o.dense))
		}
		copy(v.dense, o.dense)
		v.creators = v.creators[:0]
		v.floors = v.floors[:0]
		return
	}
	v.dense = v.dense[:0]
	//lint:allow noalloc the append base is v's own truncated run list; growth reallocates at most once per copied width and is retained by v
	v.creators = append(v.creators[:0], o.creators...)
	//lint:allow noalloc the append base is v's own truncated run list; growth reallocates at most once per copied width and is retained by v
	v.floors = append(v.floors[:0], o.floors...)
}

// MaxFrom folds o into v pointwise: v[c] = max(v[c], o[c]). Cost is
// O(active(v) + active(o)) in the sparse form.
//
//mpichv:noalloc
func (v *Vec) MaxFrom(o *Vec) {
	if o == nil {
		return
	}
	if len(o.dense) > 0 {
		for c, f := range o.dense {
			if f != 0 {
				v.SetMax(c, f)
			}
		}
		return
	}
	if len(v.dense) > 0 {
		for i, c := range o.creators {
			if f := o.floors[i]; f > v.dense[c] {
				v.dense[c] = f
			}
		}
		return
	}
	// Both sparse: count o-only creators, grow once, merge backwards.
	missing := 0
	i, j := 0, 0
	for i < len(v.creators) && j < len(o.creators) {
		switch {
		case v.creators[i] < o.creators[j]:
			i++
		case v.creators[i] > o.creators[j]:
			missing++
			j++
		default:
			i, j = i+1, j+1
		}
	}
	missing += len(o.creators) - j
	if missing == 0 {
		i, j = 0, 0
		for j < len(o.creators) {
			for v.creators[i] < o.creators[j] {
				i++
			}
			if o.floors[j] > v.floors[i] {
				v.floors[i] = o.floors[j]
			}
			j++
		}
		return
	}
	oldLen := len(v.creators)
	newLen := oldLen + missing
	//lint:allow noalloc run-list growth is amortized: append reallocates only past capacity, then merges reuse it
	v.creators = append(v.creators, make([]int32, missing)...)
	//lint:allow noalloc run-list growth is amortized: append reallocates only past capacity, then merges reuse it
	v.floors = append(v.floors, make([]uint64, missing)...)
	w := newLen - 1
	i, j = oldLen-1, len(o.creators)-1
	for j >= 0 {
		if i >= 0 && v.creators[i] > o.creators[j] {
			v.creators[w] = v.creators[i]
			v.floors[w] = v.floors[i]
			i--
		} else if i >= 0 && v.creators[i] == o.creators[j] {
			v.creators[w] = v.creators[i]
			v.floors[w] = maxU64(v.floors[i], o.floors[j])
			i--
			j--
		} else {
			v.creators[w] = o.creators[j]
			v.floors[w] = o.floors[j]
			j--
		}
		w--
	}
	v.maybeDensify()
}

// FillDense writes the vector into a caller-provided dense array (zeroing
// entries with no run) — the export used by tests, probes and the dense
// wire format.
func (v *Vec) FillDense(dst []uint64) {
	clear(dst)
	v.Range(func(c int, f uint64) bool {
		if c < len(dst) {
			dst[c] = f
		}
		return true
	})
}

// Dense returns a freshly allocated dense copy of length np (cold paths:
// tests and probes).
func (v *Vec) Dense() []uint64 {
	out := make([]uint64, v.np)
	v.FillDense(out)
	return out
}

// Clone returns a freshly allocated deep copy (recovery responses, which
// are retained by the recovering node, must never alias pooled scratch).
func (v *Vec) Clone() *Vec {
	c := &Vec{}
	c.CopyFrom(v)
	return c
}

// IsDense reports the current representation (tests and diagnostics).
func (v *Vec) IsDense() bool { return len(v.dense) > 0 }

// RunHeaderBytes and RunBytes define the interval-coded wire format's
// modeled size: a count header plus one (creator, floor) run per active
// creator. CheckpointImage accounting charges this encoding.
const (
	RunHeaderBytes = 4
	RunBytes       = 12 // 4-byte creator + 8-byte clock floor
)

// EncodedBytes returns the modeled wire size of the vector in the
// interval-coded encoding.
func (v *Vec) EncodedBytes() int64 {
	return RunHeaderBytes + int64(v.Active())*RunBytes
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
