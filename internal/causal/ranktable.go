package causal

import (
	"slices"

	"mpichv/internal/event"
)

// rankTable is the sparse per-rank row store shared by the reducers: a pair
// of parallel arrays sorted by rank, holding one row of T per rank that has
// ever been touched. It replaces the dense NP-length tables (per-creator
// determinant sequences, graph chains, per-peer knowledge vectors) so that
// reducer state and iteration cost track the set of *active* ranks, not the
// world size. Iteration over keys/rows is in ascending rank order, keeping
// every consumer deterministic and preserving the factored emission order
// the dense tables produced.
type rankTable[T any] struct {
	keys []int32
	rows []T
}

// size returns the number of active rows.
func (t *rankTable[T]) size() int { return len(t.keys) }

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

// seek is search for a caller that visits ranks in ascending order: it
// advances the cursor i, the slot its previous call returned, to rank r.
//
//mpichv:noalloc
func (t *rankTable[T]) seek(i int, r event.Rank) (int, bool) {
	for i < len(t.keys) && t.keys[i] < int32(r) {
		i++
	}
	return i, i < len(t.keys) && t.keys[i] == int32(r)
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

// clockIndex returns the position of clock in a non-empty chain of one
// creator's events in ascending clock order, running from clock first to
// clock last, or -1. A chain spanning exactly its own length has no gaps, so
// the distance from first is the position; one with gaps is searched with
// cmp, which orders an element against a clock.
func clockIndex[T any](chain []T, first, last, clock uint64, cmp func(T, uint64) int) int {
	if clock < first || clock > last {
		return -1
	}
	if last-first == uint64(len(chain)-1) {
		return int(clock - first)
	}
	if i, ok := slices.BinarySearchFunc(chain, clock, cmp); ok {
		return i
	}
	return -1
}
