package sim

// Mailbox is an unbounded FIFO queue connecting simulated activities.
// Put never blocks; Get blocks the calling process until an item is
// available. Items are delivered in Put order and waiters are served in
// arrival order, so mailbox behaviour is deterministic.
//
// Storage is a ring buffer and parked-waiter records are recycled through a
// free list, so steady-state Put/Get traffic — the per-message path of every
// simulated daemon — allocates nothing once the ring has grown to the
// mailbox's high-water mark.
type Mailbox[T any] struct {
	k     *Kernel
	items ring[T]

	waiters    []*waiter
	waiterFree []*waiter
}

type waiter struct {
	p       *Proc
	dropped bool
	// drop is the kill hook (set w.dropped), built once per waiter record
	// so recycled waiters park without allocating.
	drop func()
}

// NewMailbox returns an empty mailbox bound to k.
func NewMailbox[T any](k *Kernel) *Mailbox[T] {
	return &Mailbox[T]{k: k}
}

// Put appends v and wakes the oldest live waiter, if any. It may be called
// from event context or from any process.
//
//mpichv:noalloc
func (m *Mailbox[T]) Put(v T) {
	m.items.push(v)
	m.wakeOne()
}

//mpichv:noalloc
func (m *Mailbox[T]) wakeOne() {
	for len(m.waiters) > 0 {
		w := m.waiters[0]
		copy(m.waiters, m.waiters[1:])
		m.waiters = m.waiters[:len(m.waiters)-1]
		if w.dropped {
			// Killed while parked: its Get never resumes normally, so the
			// record is recycled here.
			m.recycle(w)
			continue
		}
		w.dropped = true
		w.p.unpark()
		return
	}
}

// newWaiter returns a parked-waiter record for p, recycled when possible.
//
//mpichv:amortized free-list refill: the record and its drop hook are built once per slot and recycled forever after
func (m *Mailbox[T]) newWaiter(p *Proc) *waiter {
	if n := len(m.waiterFree); n > 0 {
		w := m.waiterFree[n-1]
		m.waiterFree = m.waiterFree[:n-1]
		w.p, w.dropped = p, false
		return w
	}
	w := &waiter{p: p}
	w.drop = func() { w.dropped = true }
	return w
}

//mpichv:noalloc
func (m *Mailbox[T]) recycle(w *waiter) {
	w.p = nil
	m.waiterFree = append(m.waiterFree, w)
}

// Get removes and returns the oldest item, blocking the calling process
// until one is available. If the process is killed while waiting, Get
// unwinds with ErrKilled.
//
//mpichv:noalloc
func (m *Mailbox[T]) Get(p *Proc) T {
	for m.items.Len() == 0 {
		w := m.newWaiter(p)
		m.waiters = append(m.waiters, w)
		// If p is killed while parked here, drop its waiter slot so a later
		// Put does not waste a wakeup on a corpse.
		p.onKill = w.drop
		p.park()
		p.onKill = nil
		// A normal wakeup means wakeOne already removed w from the queue.
		m.recycle(w)
	}
	v := m.items.pop()
	// If items remain and other waiters exist (possible when several Puts
	// landed before we ran), pass the wakeup along.
	if m.items.Len() > 0 {
		m.wakeOne()
	}
	return v
}

// TryGet removes and returns the oldest item without blocking. The boolean
// reports whether an item was available.
//
//mpichv:noalloc
func (m *Mailbox[T]) TryGet() (T, bool) {
	if m.items.Len() == 0 {
		var zero T
		return zero, false
	}
	return m.items.pop(), true
}

// Len reports the number of queued items.
func (m *Mailbox[T]) Len() int { return m.items.Len() }

// Range calls fn on every queued item in FIFO order without consuming any,
// stopping early when fn returns false. It is a pure read: recovery
// diagnostics use it to inspect undelivered traffic.
func (m *Mailbox[T]) Range(fn func(T) bool) {
	for i := 0; i < m.items.Len(); i++ {
		if !fn(*m.items.at(i)) {
			return
		}
	}
}
