package sim

import (
	"fmt"
	"iter"
	"slices"
)

// ErrKilled is the panic value used to unwind a process when it is killed
// or its kernel is closed. Process bodies must not recover from it; the
// kernel's wrapper does.
var ErrKilled = fmt.Errorf("sim: process killed")

// Proc is a simulated process: a coroutine that runs only when the kernel
// switches to it, and switches back whenever it blocks (Sleep, park,
// mailbox Get) or finishes.
type Proc struct {
	k    *Kernel
	name string

	// next switches from the kernel to the process and returns when the
	// process parks or finishes; yield is the switch back, and reports
	// false once stop has asked the process to unwind. All three come
	// from one iter.Pull: a switch is a direct coroutine switch on the
	// caller's OS thread, not a trip through the Go scheduler.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()

	// The closures every blocking operation schedules. They are built once
	// at Spawn so that the simulation hot path (Sleep, mailbox waits, the
	// compute poll) allocates nothing per operation.
	stepFn  func() // resume p
	wakeFn  func() // Sleep's timer: resume p at the instant it fires
	tickFn  func() // SleepPolled's timer when it is not on the poll lane
	checkFn func() // SleepPolled's poll

	killed   bool
	finished bool
	parked   bool

	// onKill detaches the proc from the wait queue (e.g. a mailbox waiter
	// list) it is enqueued on at the moment it is killed. A process blocks
	// on at most one queue at a time, so a single slot suffices.
	onKill func()

	// State of the SleepPolled the process is blocked in, if any.
	pollEnd   Time // when the sleep is over
	pollEvery Time
	pollReady func() bool
}

// Spawn creates a process named name running fn and schedules it to start at
// the current virtual time. It returns the Proc handle immediately; the body
// does not run until the kernel loop reaches the start event.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name}
	p.stepFn = func() { k.step(p) }
	p.wakeFn = func() { k.runNext(p.stepFn) }
	p.tickFn = func() { k.runNext(p.checkFn) }
	p.checkFn = p.check
	k.procs = append(k.procs, p)
	k.liveProcs++

	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			r := recover()
			p.retire()
			if r != nil && r != any(ErrKilled) {
				// Real bug in a process body: re-raise it through next (or
				// stop) into kernel context, where callers can observe it.
				panic(fmt.Sprintf("sim: process %q panicked: %v", name, r))
			}
		}()
		if p.killed {
			// Killed before ever running: do not execute the body.
			return
		}
		fn(p)
	})

	k.At(k.now, p.stepFn)
	return p
}

// retire records that p's coroutine has ended: its body returned or unwound,
// or Close stopped it before it ever started.
func (p *Proc) retire() {
	if p.finished {
		return
	}
	p.finished = true
	if !p.killed {
		p.k.liveProcs--
	}
	if i := slices.Index(p.k.procs, p); i >= 0 {
		p.k.procs = slices.Delete(p.k.procs, i, i+1)
	}
}

// step switches to p and returns when p parks, finishes or dies. A panic in
// the process body is re-raised here, in kernel context.
func (k *Kernel) step(p *Proc) {
	if !p.finished {
		p.next()
	}
}

// park blocks the calling process until another activity calls unpark. It
// panics with ErrKilled if the process is killed, or its kernel closed,
// while parked.
func (p *Proc) park() {
	p.k.counts.Parks++
	p.parked = true
	//lint:allow noalloc yield is the iter.Pull coroutine switch back to Kernel.step: it calls into no function and allocates nothing
	open := p.yield(struct{}{})
	p.parked = false
	if p.killed || !open {
		panic(ErrKilled)
	}
}

// unpark schedules p to resume at the current virtual time. It is the only
// legal way to wake a parked process.
func (p *Proc) unpark() {
	p.k.At(p.k.now, p.stepFn)
}

// Name returns the name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Sleep blocks the calling process for d nanoseconds of virtual time.
// It models local computation as well as pure waiting; the network and CPU
// layers charge their costs through Sleep.
// When its wake-up would be RunUntil's next pop, and would resume p in
// place (runNext), Sleep takes the wake-up's seq and moves the clock instead.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %v", d))
	}
	if d == 0 {
		return
	}
	k := p.k
	if t := k.now + d; t <= k.deadline && !k.stopped && !p.killed && !k.dueBy(t) {
		k.seq++
		k.now = t
		k.counts.InPlaceSleeps++
		return
	}
	k.After(d, p.wakeFn)
	p.park()
}

// SleepPolled blocks the calling process for d of virtual time, or until
// ready reports true at one of the instants now+every, now+2·every, …
// before that; it returns how much of d was left unslept. ready runs in
// kernel context and must not block or schedule. It must also be pure —
// no side effects, no reading of the clock — for it is evaluated at any
// instant between the events that can change it, not once per interval.
//
// It acts, event for event, as the loop
//
//	for left > 0 { c := min(left, every); Sleep(c); left -= c; if left > 0 && ready() { break } }
//
// without switching to the process between polls: each poll is a timer
// event (tick) that schedules a second event (check) at the same instant,
// in the (time, seq) slots where Sleep's wake-up and the process's resume
// would sit. Keeping the pair — rather than polling from the tick — is
// what lets everything scheduled for that instant between the two still
// run before the poll, exactly as it would before the process resumed.
// A tick a full interval ahead waits on the kernel's poll lane, and at an
// instant where nothing else is pending it polls at once (Kernel.runTick);
// the lane skips the ticks before the next heap event that could only
// fail (Kernel.skipLane).
func (p *Proc) SleepPolled(d, every Time, ready func() bool) (left Time) {
	if d < 0 || every <= 0 {
		panic(fmt.Sprintf("sim: polled sleep of %v every %v", d, every))
	}
	if d == 0 {
		return 0
	}
	p.pollEnd, p.pollEvery, p.pollReady = p.k.now+d, every, ready
	p.armTick()
	p.park()
	return p.pollEnd - p.k.now
}

// armTick schedules the next poll: on the lane when it is a full interval
// ahead and the lane is empty or runs at that interval, else on the heap.
//
//mpichv:noalloc
func (p *Proc) armTick() {
	k := p.k
	d := min(p.pollEnd-k.now, p.pollEvery)
	if d < p.pollEvery || k.polls.Len() > 0 && k.pollEvery != d {
		k.After(d, p.tickFn)
		return
	}
	k.pollEvery = d
	k.seq++
	k.polls.push(pollTick{at: k.now + d, seq: k.seq, p: p})
}

// poll is SleepPolled's poll at the current instant: it reports whether
// the sleep is over (due, killed, or ready), and re-arms the next tick if
// not.
func (p *Proc) poll() bool {
	if p.pollEnd == p.k.now || p.killed || p.pollReady() {
		return true
	}
	p.armTick()
	return false
}

// check is SleepPolled's poll event: it stands where the process's resume
// would, and switches to the process only when the sleep is over.
func (p *Proc) check() {
	if p.poll() {
		// A process killed mid-sleep unwinds here, unless the kill's own
		// resume already ran (step is then a no-op); the chain ends.
		p.k.step(p)
	}
}

// Yield parks the process and immediately reschedules it, letting every
// other activity pending at the current instant run first.
func (p *Proc) Yield() {
	p.unpark()
	p.park()
}

// Park blocks the process until another activity calls Unpark, or until it
// is killed (unwinding with ErrKilled). It is the low-level primitive for
// callers that drive a process's progress from kernel events — e.g. the
// daemon's batched sender-log replay, which blocks the serving process
// once while an event chain emits the replay set.
func (p *Proc) Park() { p.park() }

// Unpark schedules a parked process to resume at the current virtual time.
// It must only be called on a process currently blocked in Park (calling
// it on a running or finished process corrupts the scheduler handshake).
func (p *Proc) Unpark() { p.unpark() }

// Kill marks p dead and, if it is parked, wakes it so that it unwinds with
// ErrKilled. Killing an already-dead process is a no-op. Kill must be called
// from kernel context or from another process (never from p itself).
func (p *Proc) Kill() {
	if p.killed || p.finished {
		return
	}
	p.killed = true
	p.k.liveProcs--
	if p.onKill != nil {
		p.onKill()
		p.onKill = nil
	}
	if p.parked {
		p.unpark()
	}
}

// Killed reports whether Kill has been called on p.
func (p *Proc) Killed() bool { return p.killed }

// Finished reports whether the process body has returned or unwound.
func (p *Proc) Finished() bool { return p.finished }
