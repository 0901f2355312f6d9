package sim

// scheduled is one pending event: run fn at virtual time at. The seq field
// breaks ties between events scheduled for the same instant so that event
// execution order is a deterministic function of scheduling order.
type scheduled struct {
	at  Time
	seq uint64
	fn  func()
}

// eventHeap is a binary min-heap ordered by (at, seq). It is hand-rolled
// rather than wrapping container/heap because the kernel pops an event on
// every simulated action and the interface-based heap costs an allocation
// per operation.
type eventHeap struct {
	items []scheduled
}

func (h *eventHeap) Len() int { return len(h.items) }

func (h *eventHeap) less(i, j int) bool {
	a, b := &h.items[i], &h.items[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts ev and restores the heap invariant.
func (h *eventHeap) push(ev scheduled) {
	h.items = append(h.items, ev)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

// pop removes and returns the earliest event. Popping an empty heap is a
// kernel invariant violation — it means some layer consumed events it never
// scheduled — so it fails with a diagnosable message instead of a raw index
// panic.
func (h *eventHeap) pop() scheduled {
	if len(h.items) == 0 {
		panic("sim: pop from empty event queue (kernel invariant violation: " +
			"an activity awaited progress no pending event can provide)")
	}
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items[last] = scheduled{} // release the closure for GC
	h.items = h.items[:last]
	h.siftDown(0)
	return top
}

// peek returns the earliest event without removing it.
func (h *eventHeap) peek() scheduled {
	if len(h.items) == 0 {
		panic("sim: peek at empty event queue (kernel invariant violation)")
	}
	return h.items[0]
}

func (h *eventHeap) siftDown(i int) {
	n := len(h.items)
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && h.less(left, smallest) {
			smallest = left
		}
		if right < n && h.less(right, smallest) {
			smallest = right
		}
		if smallest == i {
			return
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}
