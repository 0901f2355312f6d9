package causal

import "mpichv/internal/event"

// rankTable is the sparse per-rank row store behind the reducers' store
// (its per-creator chains and per-peer knowledge vectors): a pair of
// parallel arrays sorted by rank, holding one row of T per rank that has
// ever been touched, so that reducer state and iteration cost track the set
// of *active* ranks, not the world size. Iteration over keys/rows is in
// ascending rank order, keeping every consumer deterministic and giving the
// factored emission order.
type rankTable[T any] struct {
	keys []int32
	rows []T
}

// search returns the slot of rank r, or the insertion point and false.
//
//mpichv:noalloc
func (t *rankTable[T]) search(r event.Rank) (int, bool) {
	lo, hi := 0, len(t.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if t.keys[mid] < int32(r) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(t.keys) && t.keys[lo] == int32(r)
}

// lookup returns rank r's row value (the zero value when absent).
//
//mpichv:noalloc
func (t *rankTable[T]) lookup(r event.Rank) (T, bool) {
	if i, ok := t.search(r); ok {
		return t.rows[i], true
	}
	var zero T
	return zero, false
}

// row returns a pointer to rank r's row, creating a zero-value row if
// needed. The pointer is valid until the next row insertion.
//
//mpichv:amortized one insertion per newly active rank; steady state is a binary search returning an existing row
func (t *rankTable[T]) row(r event.Rank) *T {
	// Append fast path: ranks mostly activate in ascending order.
	if n := len(t.keys); n == 0 || t.keys[n-1] < int32(r) {
		var zero T
		t.keys = append(t.keys, int32(r))
		t.rows = append(t.rows, zero)
		return &t.rows[n]
	}
	i, ok := t.search(r)
	if !ok {
		var zero T
		t.keys = append(t.keys, 0)
		t.rows = append(t.rows, zero)
		copy(t.keys[i+1:], t.keys[i:])
		copy(t.rows[i+1:], t.rows[i:])
		t.keys[i] = int32(r)
		t.rows[i] = zero
	}
	return &t.rows[i]
}
