package sim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
)

// Kernel is the discrete-event simulation core. It owns the virtual clock,
// the pending-event queue and the set of live processes. A Kernel is not
// safe for concurrent use from multiple OS threads; the whole point is that
// exactly one simulated activity runs at a time.
type Kernel struct {
	now   Time
	seq   uint64
	queue eventHeap
	// polls is the poll lane: SleepPolled ticks armed a full interval,
	// pollEvery, ahead. Each is pushed at now+pollEvery with a fresh seq, so
	// the FIFO is already in (time, seq) order and needs no heap.
	polls     ring[pollTick]
	pollEvery Time
	counts    Counts
	rng       *rand.Rand
	stopped   bool
	deadline  Time // RunUntil's while it runs, else 0: no Sleep ends in place
	// held is the last instant at which a lane entry due then kept
	// skipLane from skipping: no tick at it can be skipped.
	held Time
	// background counts the pending events scheduled with Background.
	background int

	// procs holds, in spawn order, every process whose coroutine has not
	// ended yet — a killed one stays until it has unwound. Close walks it.
	procs     []*Proc
	liveProcs int
}

// Counts is what a kernel has done so far: parks (a process switched back
// to the kernel), Sleeps that ended in place instead, and lane ticks
// re-armed in place (served one by one or Skipped in a fast-forward), run
// as a check, and run as one at an instant they opened.
type Counts struct{ Parks, InPlaceSleeps, Rearmed, Skipped, Checked, FellBack int }

// Counts returns the kernel's counters.
func (k *Kernel) Counts() Counts { return k.counts }

// NewKernel returns a kernel with the clock at zero and a deterministic
// random source derived from seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{rng: rand.New(rand.NewSource(seed))}
}

// DeriveSeed maps a base seed and a stream name to a deterministic
// non-zero seed: FNV-1a over "base|name", masked to 63 bits. Each named
// stream (a sweep cell, a fault-plan component, a degraded link) draws
// independently, so one stream's draw count never perturbs another's,
// while everything stays reproducible from the base seed alone.
func DeriveSeed(base int64, name string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", base, name)
	return max(int64(h.Sum64()&(1<<63-1)), 1)
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand exposes the kernel's deterministic random source. All stochastic
// decisions in a simulation must draw from this source; anything else breaks
// reproducibility.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// is a programming error and panics: silently reordering time would corrupt
// causality in every layer above.
func (k *Kernel) At(t Time, fn func()) {
	if t < k.now {
		//lint:allow noalloc formatting happens only on the fatal scheduling-in-the-past abort, never on a live run
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	k.seq++
	k.queue.push(scheduled{at: t, seq: k.seq, fn: fn})
}

// After schedules fn to run d nanoseconds of virtual time from now.
func (k *Kernel) After(d Time, fn func()) { k.At(k.now+d, fn) }

// Background schedules fn at absolute virtual time t as an event that does
// not keep the run alive: RunUntil returns once only such events remain,
// with the clock at the last event that did. It is for observers (the gauge
// sampler) whose ticks must not move the end of a run.
func (k *Kernel) Background(t Time, fn func()) {
	k.background++
	k.At(t, func() { k.background--; fn() })
}

// pollTick is a pending lane tick: poll p at virtual time at.
type pollTick struct {
	at  Time
	seq uint64
	p   *Proc
}

// heapAt reports whether the heap holds an event at t or earlier.
func (k *Kernel) heapAt(t Time) bool { return k.queue.Len() > 0 && k.queue.items[0].at <= t }

// dueBy reports whether the heap or the poll lane holds an event at t or
// earlier.
func (k *Kernel) dueBy(t Time) bool { return k.heapAt(t) || k.polls.Len() > 0 && k.polls.at(0).at <= t }

// runNext runs fn as the next event of the current instant. It is for
// timer events whose whole job is that hand-over (Sleep's wake-up, the
// SleepPolled tick): when nothing else is pending at this instant, the
// event they would push is the very next pop, so fn runs in place.
func (k *Kernel) runNext(fn func()) {
	if k.dueBy(k.now) {
		k.At(k.now, fn)
		return
	}
	fn()
}

// runTick serves the lane tick of p at t. When the heap holds nothing at
// t, only other lane ticks could run before the check this tick would
// push, and a tick changes nothing a poll sees, so the poll runs here: it
// re-arms in place, or its resume takes the check's slot. Otherwise the
// check is scheduled behind the events at t, as a heap tick's would be.
func (k *Kernel) runTick(t Time, p *Proc) {
	fresh := t > k.now
	k.now = t
	switch {
	case k.heapAt(t):
		k.counts.Checked++
		if fresh {
			k.counts.FellBack++
		}
		k.runNext(p.checkFn)
	case p.poll():
		k.runNext(p.stepFn)
	default:
		k.counts.Rearmed++
	}
}

// Stop makes Run return after the currently executing event completes.
func (k *Kernel) Stop() { k.stopped = true }

// Stopped reports whether Stop has been called.
func (k *Kernel) Stopped() bool { return k.stopped }

// Run executes events until the queue drains or Stop is called, and returns
// the final virtual time. Processes blocked forever (e.g. a Recv that is
// never matched) do not keep Run alive: with no pending event there is no
// future in which they could wake.
func (k *Kernel) Run() Time {
	return k.RunUntil(Time(1<<62 - 1))
}

// RunUntil executes events with timestamps ≤ deadline and returns the final
// virtual time, which is earlier than deadline if Stop is called or the
// queue drains (see Drained). A deadline already passed runs nothing: the
// clock never moves backwards.
func (k *Kernel) RunUntil(deadline Time) Time {
	if deadline < k.now {
		return k.now
	}
	k.deadline = deadline
	defer func() { k.deadline = 0 }()
	for !k.stopped && k.QueueLen() > k.background {
		if k.laneFirst() {
			if k.polls.at(0).at > deadline {
				k.now = deadline
				return k.now
			}
			if k.skipLane(deadline) {
				continue
			}
			tick := k.polls.pop()
			k.runTick(tick.at, tick.p)
			continue
		}
		if k.queue.peek().at > deadline {
			k.now = deadline
			return k.now
		}
		ev := k.queue.pop()
		k.now = ev.at
		ev.fn()
	}
	return k.now
}

// skipLane fast-forwards the poll lane over the ticks that could only
// re-arm in place, and reports whether it skipped any. ready is pure, and
// a tick that re-arms changes nothing it reads, so every tick before b
// fails: b is the earliest of the heap's next event, deadline+1 and, per
// entry, its own tick if its process is killed or ready, else its first
// tick with less than a full interval left. Each skipped tick is the FIFO
// rotation serving it makes: pop, push back an interval later, fresh seq.
func (k *Kernel) skipLane(deadline Time) bool {
	every, head := k.pollEvery, k.polls.at(0).at
	b := deadline + 1
	if k.queue.Len() > 0 {
		b = min(b, k.queue.peek().at)
	}
	if b-head <= every || head == k.held {
		return false // a dense heap, or an entry due now bounds the lane
	}
	for i := 0; i < k.polls.Len(); i++ {
		tick := k.polls.at(i)
		end, p := tick.at, tick.p
		if last := p.pollEnd - every; end <= last && !p.killed && !p.pollReady() {
			end += ((last-end)/every + 1) * every
		}
		if end == head {
			// Serving the ticks before it changes nothing read here, and
			// serving it puts a bound within an interval in the heap: no
			// rescan at this instant.
			k.held = head
			return false
		}
		b = min(b, end)
	}
	skipped := 0
	for k.polls.at(0).at < b {
		tick := k.polls.pop()
		k.seq++
		tick.at, tick.seq = tick.at+every, k.seq
		k.polls.push(tick)
		skipped++
	}
	k.counts.Rearmed += skipped
	k.counts.Skipped += skipped
	return true
}

// laneFirst reports whether the poll lane's head is the earliest pending
// event by (time, seq).
func (k *Kernel) laneFirst() bool {
	if k.polls.Len() == 0 {
		return false
	}
	tick := k.polls.at(0)
	return !k.heapAt(tick.at) || tick.at == k.queue.items[0].at && tick.seq < k.queue.items[0].seq
}

// Close ends every process that has not finished — never started, blocked
// in Sleep, SleepPolled, Mailbox.Get or Park, or killed but not yet unwound
// — by unwinding it with ErrKilled, so that a finished simulation leaves no
// coroutine, and nothing reachable from one, behind. A panic from a process
// body's deferred calls surfaces here; calling Close again resumes with the
// remaining processes. Closing twice is a no-op. A closed kernel must not
// be run again.
func (k *Kernel) Close() {
	for len(k.procs) > 0 {
		p := k.procs[0]
		p.stop()
		p.retire()
	}
}

// LiveProcs reports the number of spawned processes that have not yet
// finished or been killed.
func (k *Kernel) LiveProcs() int { return k.liveProcs }

// Drained reports whether no pending event can keep the run alive: the
// queue is empty or holds only Background events. A run that drained
// without being stopped has processes blocked forever, not a cut at its
// deadline.
func (k *Kernel) Drained() bool { return k.QueueLen() == k.background }

// QueueLen reports the number of pending events (useful in tests).
func (k *Kernel) QueueLen() int { return k.queue.Len() + k.polls.Len() }
