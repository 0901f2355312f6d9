// Package sparsevec provides the per-creator clock vector shared by the
// causality layers: the piggyback reducers' knowledge and stability tables,
// the Event Logger's stable vector and its acknowledgments, and the
// checkpoint image's channel-sequence floors.
//
// A Vec maps creator ranks to clock floors. Every entry stands for a prefix
// interval: floor f for creator c means "all of c's events with clock in
// [1, f]" — exactly the shape causal message logging produces, because
// per-creator knowledge is downward closed (an acknowledgment or a vector
// clock never has holes below its floor). In memory a Vec is one plain
// array of np floors, allocated at its first write. Its modeled wire
// encoding (EncodedBytes) is interval-coded — a count header plus one
// (creator, floor) run per active creator — so the checkpoint images that
// charge it track the creators actually heard from, not the world size.
package sparsevec

// Vec is a clock vector: creator → highest known clock. The zero value
// reads as all zeros without allocating; Reset binds it to a world size
// before its first write. Vecs are single-owner state — like the reducers
// they serve, they are never shared between goroutines.
type Vec struct {
	np int
	// floors is empty (every floor zero) until the first write, then holds
	// np entries.
	floors []uint64
}

// New returns an empty vector for a world of np creators.
func New(np int) *Vec { return &Vec{np: np} }

// NP returns the world size the vector is bound to (0 for the zero value).
func (v *Vec) NP() int { return v.np }

// Reset empties the vector and binds it to a world of np creators. The
// floor array is kept and cleared at the next write, so a pooled vector
// resets without allocating.
//
//mpichv:noalloc
func (v *Vec) Reset(np int) {
	v.np = np
	v.floors = v.floors[:0]
}

// Get returns the floor recorded for creator c (0 when none).
//
//mpichv:noalloc
func (v *Vec) Get(c int) uint64 {
	if uint(c) < uint(len(v.floors)) {
		return v.floors[c]
	}
	return 0
}

// SetMax raises creator c's floor to f if it is higher than the recorded
// one. Floors only ever grow (knowledge is monotone), so this is the single
// mutation primitive.
//
//mpichv:noalloc
func (v *Vec) SetMax(c int, f uint64) {
	if f == 0 {
		return
	}
	if len(v.floors) == 0 {
		v.grow()
	}
	if f > v.floors[c] {
		v.floors[c] = f
	}
}

// grow gives an empty vector its np zero floors.
//
//mpichv:amortized one np-length array per vector lifetime, recycled across Reset
func (v *Vec) grow() {
	if cap(v.floors) < v.np {
		v.floors = make([]uint64, v.np)
		return
	}
	v.floors = v.floors[:v.np]
	clear(v.floors)
}

// Active returns the number of creators with a nonzero floor.
func (v *Vec) Active() int {
	n := 0
	for _, f := range v.floors {
		if f != 0 {
			n++
		}
	}
	return n
}

// Range calls fn for every nonzero entry in ascending creator order,
// stopping early when fn returns false.
//
//mpichv:noalloc
func (v *Vec) Range(fn func(c int, f uint64) bool) {
	for c, f := range v.floors {
		//lint:allow noalloc the callback is the iteration contract; callers pass non-escaping literals the compiler keeps off the heap
		if f != 0 && !fn(c, f) {
			return
		}
	}
}

// CopyFrom makes v an exact copy of o, reusing v's floor array.
//
//mpichv:noalloc
func (v *Vec) CopyFrom(o *Vec) {
	v.np = o.np
	//lint:allow noalloc the append base is v's own truncated array; it reallocates at most once per world size and is retained by v
	v.floors = append(v.floors[:0], o.floors...)
}

// MaxFrom folds o into v pointwise: v[c] = max(v[c], o[c]).
//
//mpichv:noalloc
func (v *Vec) MaxFrom(o *Vec) {
	if o == nil || len(o.floors) == 0 {
		return
	}
	if len(v.floors) == 0 {
		v.grow()
	}
	for c, f := range o.floors {
		v.floors[c] = max(v.floors[c], f)
	}
}

// FillDense writes the vector into a caller-provided array, zeroing the
// entries it does not cover — the export used by tests, probes and the
// dense wire format.
func (v *Vec) FillDense(dst []uint64) {
	clear(dst[copy(dst, v.floors):])
}

// Dense returns a freshly allocated copy of length np (cold paths: tests
// and probes).
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
