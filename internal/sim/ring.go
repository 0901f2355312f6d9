package sim

// ring is a growable FIFO ring buffer: the storage of Mailbox and of the
// kernel's poll lane. Its length is zero or a power of two, so an index
// wraps with a mask, and it allocates only when it grows past its
// high-water mark.
type ring[T any] struct {
	buf   []T
	head  int // index of the oldest item
	count int
}

func (r *ring[T]) Len() int { return r.count }

// at returns the i-th oldest item (i < Len).
func (r *ring[T]) at(i int) *T { return &r.buf[(r.head+i)&(len(r.buf)-1)] }

// push appends v at the tail.
//
//mpichv:noalloc
func (r *ring[T]) push(v T) {
	if r.count == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.count)&(len(r.buf)-1)] = v
	r.count++
}

// pop removes and returns the oldest item (Len must be positive).
//
//mpichv:noalloc
func (r *ring[T]) pop() T {
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero // release the reference for GC
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.count--
	return v
}

// grow doubles the ring (minimum 8), unwrapping items into FIFO order.
//
//mpichv:amortized ring doubling: geometric growth costs nothing once the ring reaches its high-water mark
func (r *ring[T]) grow() {
	next := make([]T, max(8, 2*len(r.buf)))
	for i := 0; i < r.count; i++ {
		next[i] = *r.at(i)
	}
	r.buf = next
	r.head = 0
}
