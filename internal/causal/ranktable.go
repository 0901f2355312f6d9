package causal

import "mpichv/internal/event"

// rankTable is the per-rank row store behind the reducers' store (its
// per-creator chains and per-peer knowledge vectors): a dense rank→row
// index over rows kept in activation order. Rows are append-only, so a row
// index never shifts and a lookup is one load. The index costs 4 bytes per
// world rank and is allocated with the first row, so a table never
// touched costs nothing. Rank-ordered iteration is the caller's (the
// store's live-chain bitmap).
type rankTable[T any] struct {
	index []int32 // index[r] is rank r's row + 1, 0 when r has none
	rows  []T
}

// slot returns rank r's row index, -1 when r has no row.
//
//mpichv:noalloc
func (t *rankTable[T]) slot(r event.Rank) int {
	if int(r) < len(t.index) {
		return int(t.index[r]) - 1
	}
	return -1
}

// lookup returns rank r's row value (the zero value when absent).
//
//mpichv:noalloc
func (t *rankTable[T]) lookup(r event.Rank) (T, bool) {
	if i := t.slot(r); i >= 0 {
		return t.rows[i], true
	}
	var zero T
	return zero, false
}

// row returns a pointer to rank r's row in a world of np ranks, appending
// a zero-value row if needed. The pointer is valid until the next row
// insertion.
//
//mpichv:amortized the index is allocated with the first row and rows grow by append, one per newly active rank; steady state is an index load
func (t *rankTable[T]) row(r event.Rank, np int) *T {
	if t.index == nil {
		t.index = make([]int32, np)
	}
	if t.index[r] == 0 {
		var zero T
		t.rows = append(t.rows, zero)
		t.index[r] = int32(len(t.rows))
	}
	return &t.rows[t.index[r]-1]
}
