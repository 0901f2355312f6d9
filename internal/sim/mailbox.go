package sim

// Mailbox is an unbounded FIFO queue connecting simulated activities.
// Put never blocks; Get blocks the calling process until an item is
// available. Items are delivered in Put order, so mailbox behaviour is
// deterministic. A mailbox has one reader: at most one process blocks in
// Get at a time.
//
// Storage is a ring buffer, so steady-state Put/Get traffic — the
// per-message path of every simulated daemon — allocates nothing once the
// ring has grown to the mailbox's high-water mark.
type Mailbox[T any] struct {
	k     *Kernel
	items ring[T]

	// reader is the process parked in Get, if any; drop, its kill hook,
	// clears the slot and is built once so that parking allocates nothing.
	reader *Proc
	drop   func()
}

// NewMailbox returns an empty mailbox bound to k.
func NewMailbox[T any](k *Kernel) *Mailbox[T] {
	m := &Mailbox[T]{k: k}
	m.drop = func() { m.reader = nil }
	return m
}

// Put appends v and wakes the parked reader, if any. It may be called
// from event context or from any process.
//
//mpichv:noalloc
func (m *Mailbox[T]) Put(v T) {
	m.items.push(v)
	if p := m.reader; p != nil {
		m.reader = nil
		p.unpark()
	}
}

// Get removes and returns the oldest item, blocking the calling process
// until one is available. If the process is killed while waiting, Get
// unwinds with ErrKilled. A second process blocking in Get while one is
// parked there is a programming error and panics.
//
//mpichv:noalloc
func (m *Mailbox[T]) Get(p *Proc) T {
	for m.items.Len() == 0 {
		if m.reader != nil {
			panic("sim: a second reader blocks in Mailbox.Get")
		}
		m.reader = p
		p.onKill = m.drop
		p.park()
		p.onKill = nil
	}
	return m.items.pop()
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
