package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// blocking is the pair of primitives a scenario's processes block through.
type blocking struct {
	sleep func(p *Proc, d Time)
	poll  func(p *Proc, d, every Time, ready func() bool) Time
}

// reference is blocking as it worked before the poll moved into the kernel
// and before timers could run their hand-over in place: a Sleep whose
// wake-up always pushes the resume as a second event, and the polled sleep
// Node.Compute wrote with it — one switch to the process and back per
// interval, the predicate evaluated by the process itself. Sleep and
// SleepPolled must match it event for event.
var reference = blocking{sleep: sleepPushed, poll: sleepPolledLoop}

// kernelBlocking is the kernel's own Sleep and SleepPolled.
var kernelBlocking = blocking{sleep: (*Proc).Sleep, poll: (*Proc).SleepPolled}

func sleepPushed(p *Proc, d Time) {
	if d == 0 {
		return
	}
	p.k.After(d, p.unpark)
	p.park()
}

func sleepPolledLoop(p *Proc, d, every Time, ready func() bool) Time {
	for d > 0 {
		c := min(d, every)
		sleepPushed(p, c)
		d -= c
		if d > 0 && ready() {
			break
		}
	}
	return d
}

type pollOp struct {
	kind  int // opSleep, opPoll, opGet
	d     Time
	every Time
	cost  Time // Sleep per drained item: pushes the process off the grid
	putTo int  // after the op, Put into this process's mailbox (-1: none)
	delay Time // … from an event this much later, as a network delivery would
}

const (
	opSleep = iota
	opPoll
	opGet
)

// timedAct is a kernel-side action on process who at time at. It is
// scheduled from another event, lead earlier, so that its seq falls among
// those of the timers armed meanwhile rather than before all of them.
type timedAct struct {
	at, lead Time
	who      int
}

// pollScenario is one generated schedule: scripted processes, each with a
// mailbox it polls, plus Puts, Kills, a Stop and a RunUntil pause driven
// from kernel events.
type pollScenario struct {
	scripts [][]pollOp
	puts    []timedAct
	kills   []timedAct
	stopAt  Time // 0: run until the queue drains
	pauseAt Time // RunUntil(pauseAt) first, then Run
}

// genPollScenario draws a scenario. With a coarse quantum every duration
// and every Put lands on a few shared instants (poll-grid points, other
// processes' wake-ups: ties decided by seq, shortcut not taken); with
// quantum 1 instants are mostly private (shortcut taken). Half the
// scenarios poll at one interval shared by all processes, so that their
// grids align and several lane ticks fall on one instant.
func genPollScenario(rng *rand.Rand) pollScenario {
	quantum := []Time{1, 5, 10}[rng.Intn(3)]
	dur := func(n int) Time { return quantum * Time(1+rng.Intn(n)) }
	var every Time
	if rng.Intn(2) == 0 {
		every = dur(4)
	}
	var sc pollScenario
	np := 1 + rng.Intn(5)
	var horizon Time
	for i := 0; i < np; i++ {
		var script []pollOp
		var total Time
		for j, n := 0, 1+rng.Intn(6); j < n; j++ {
			op := pollOp{kind: opPoll, d: dur(40), every: dur(4), cost: Time(rng.Intn(3)) * quantum, putTo: -1}
			if every > 0 {
				op.every = every
			}
			switch r := rng.Intn(10); {
			case r < 2:
				op.kind = opSleep
			case r < 3:
				op.kind = opGet
			}
			if rng.Intn(2) == 0 {
				op.putTo = rng.Intn(np)
				op.delay = quantum * Time(rng.Intn(4))
			}
			script = append(script, op)
			total += op.d
		}
		sc.scripts = append(sc.scripts, script)
		horizon = max(horizon, total)
	}
	act := func() timedAct {
		a := timedAct{at: dur(int(horizon / quantum)), who: rng.Intn(np)}
		a.lead = quantum * Time(rng.Intn(int(a.at/quantum)+1))
		return a
	}
	for i, n := 0, rng.Intn(3*np+1); i < n; i++ {
		sc.puts = append(sc.puts, act())
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		sc.kills = append(sc.kills, act())
	}
	if rng.Intn(4) == 0 {
		sc.stopAt = dur(int(horizon / quantum))
	}
	// Half a quantum off the grid when there is room: between two ticks.
	sc.pauseAt = dur(int(horizon/quantum)) + quantum/2
	return sc
}

// pollRun is what one execution of a scenario leaves behind: every action
// as "now process action", how often a Sleep wake-up or a heap poll tick
// fired with nothing else pending at its instant (the shortcut's condition),
// how many Sleeps of a positive duration the processes made, and the
// kernel's counts (lane ticks served, Sleeps ended in place).
type pollRun struct {
	log           []string
	alone, shared int
	sleeps        int
	counts        Counts
	// refused counts, per bound, the lane ticks served one by one because
	// that bound alone kept the fast-forward from skipping them (see
	// refusal); unexplained counts those no bound explains, which the
	// lane should have skipped.
	refused     [numBounds]int
	unexplained int
}

// The bounds of Kernel.skipLane: the heap's next event, the deadline, a
// ready (or killed) poller, a final partial interval.
const (
	boundHeap = iota
	boundDeadline
	boundReady
	boundPartial
	numBounds
)

// refusal names the bound that kept the lane from skipping the tick of p
// it serves one by one at the current instant: skipLane skips nothing when
// the heap's next event or the deadline lies within an interval of the
// tick, or when an entry due at the tick's instant is killed or ready, or
// has less than an interval left. It returns -1 when several bounds are
// that close, and numBounds when none is. The entries' readiness comes
// from ready, never from their own predicate.
func refusal(k *Kernel, p *Proc, ready func(*Proc) bool) int {
	now, every := k.now, k.pollEvery
	var near [numBounds]bool
	near[boundHeap] = k.queue.Len() > 0 && k.queue.peek().at-now <= every
	near[boundDeadline] = k.deadline+1-now <= every
	due := []*Proc{p}
	for i := 0; i < k.polls.Len() && k.polls.at(i).at == now; i++ {
		due = append(due, k.polls.at(i).p)
	}
	for _, q := range due {
		near[boundReady] = near[boundReady] || q.killed || ready(q)
		near[boundPartial] = near[boundPartial] || q.pollEnd-now < every
	}
	cause := numBounds
	for b, ok := range near {
		switch {
		case ok && cause == numBounds:
			cause = b
		case ok:
			return -1
		}
	}
	return cause
}

func runPollScenario(sc pollScenario, by blocking) pollRun {
	k := NewKernel(1)
	defer k.Close()
	var run pollRun
	logf := func(who, format string, args ...any) {
		run.log = append(run.log, fmt.Sprintf("%d %s %s", int64(k.now), who, fmt.Sprintf(format, args...)))
	}
	// observed wraps a timer closure to record, at the moment it fires,
	// whether the kernel's shortcut applies.
	observed := func(fn func()) func() {
		return func() {
			if k.queue.Len() == 0 || k.queue.peek().at > k.now {
				run.alone++
			} else {
				run.shared++
			}
			fn()
		}
	}

	boxes := make([]*Mailbox[int], len(sc.scripts))
	for i := range boxes {
		boxes[i] = NewMailbox[int](k)
	}
	procs := make([]*Proc, len(sc.scripts))
	pure := func(p *Proc) bool { return boxes[slices.Index(procs, p)].Len() > 0 }
	// checking is set while a poll runs as a heap event (check), so that
	// ready can tell the poll of a lane tick served one by one from those
	// and from skipLane's, made while the tick is still on the lane.
	checking := false
	onLane := func(p *Proc) bool {
		for i := 0; i < k.polls.Len(); i++ {
			if k.polls.at(i).p == p {
				return true
			}
		}
		return false
	}
	for i, script := range sc.scripts {
		name := fmt.Sprintf("p%d", i)
		mb := boxes[i]
		// ready is pure, as SleepPolled requires: the kernel may evaluate
		// it at any instant between the events that can change it. What it
		// records about the lane feeds the test alone, never the run.
		ready := func() bool {
			if p := procs[i]; p.pollReady != nil && !checking && !onLane(p) {
				switch c := refusal(k, p, pure); c {
				case numBounds:
					run.unexplained++
				case -1:
				default:
					run.refused[c]++
				}
			}
			return mb.Len() > 0
		}
		procs[i] = k.Spawn(name, func(p *Proc) {
			logf(name, "start")
			for n, op := range script {
				switch op.kind {
				case opSleep:
					run.sleeps++
					by.sleep(p, op.d)
				case opGet:
					logf(name, "got %d", mb.Get(p))
				case opPoll:
					for left := op.d; left > 0; {
						left = by.poll(p, left, op.every, ready)
						logf(name, "woke left=%d", int64(left))
						for v, ok := mb.TryGet(); ok; v, ok = mb.TryGet() {
							logf(name, "drained %d", v)
							if op.cost > 0 {
								run.sleeps++
							}
							by.sleep(p, op.cost)
						}
					}
				}
				logf(name, "op %d done", n)
				if op.putTo >= 0 {
					k.After(op.delay, func() {
						logf("kernel", "deliver %d.%d to p%d", i, n, op.putTo)
						boxes[op.putTo].Put(100*i + n)
					})
				}
			}
		})
		procs[i].wakeFn = observed(procs[i].wakeFn)
		procs[i].tickFn = observed(procs[i].tickFn)
		check := procs[i].checkFn
		procs[i].checkFn = func() { checking = true; check(); checking = false }
	}
	for n, a := range sc.puts {
		k.At(a.at-a.lead, func() {
			k.After(a.lead, func() { logf("kernel", "put %d to p%d", n, a.who); boxes[a.who].Put(n) })
		})
	}
	for _, a := range sc.kills {
		k.At(a.at-a.lead, func() {
			k.After(a.lead, func() { logf("kernel", "kill p%d", a.who); procs[a.who].Kill() })
		})
	}
	if sc.stopAt > 0 {
		k.At(sc.stopAt, func() { logf("kernel", "stop"); k.Stop() })
	}
	k.RunUntil(sc.pauseAt)
	logf("kernel", "paused queue=%d live=%d", k.QueueLen(), k.LiveProcs())
	k.Run()
	logf("kernel", "end queue=%d live=%d", k.QueueLen(), k.LiveProcs())
	run.counts = k.counts
	return run
}

// matchReference runs the scenario of seed through Sleep and SleepPolled
// and through the reference, fails t at the first action where the two
// differ, and returns the SleepPolled run.
func matchReference(t *testing.T, seed int64) pollRun {
	t.Helper()
	sc := genPollScenario(rand.New(rand.NewSource(seed)))
	want := runPollScenario(sc, reference)
	got := runPollScenario(sc, kernelBlocking)
	if got.unexplained > 0 {
		t.Fatalf("seed %d: %d lane ticks served one by one with every bound more than an interval away: the lane should have skipped them", seed, got.unexplained)
	}
	if !slices.Equal(got.log, want.log) {
		i := 0
		for i < len(got.log) && i < len(want.log) && got.log[i] == want.log[i] {
			i++
		}
		t.Fatalf("seed %d: diverged at action %d of %d/%d:\n  SleepPolled: %v\n  reference:   %v\nscenario: %+v",
			seed, i, len(got.log), len(want.log), got.log[i:min(i+3, len(got.log))], want.log[i:min(i+3, len(want.log))], sc)
	}
	return got
}

// TestSleepPolledMatchesSleepLoop is the equivalence Sleep and SleepPolled
// promise: over generated scenarios — Puts landing on poll instants and on
// other processes' wake-ups, kills mid-sleep, a RunUntil deadline between
// ticks with the run resumed, Stop from an event — every action happens
// at the same virtual time and in the same order whether processes block
// through Sleep and SleepPolled or through the reference, with Sleeps both
// ended in place and parked, the kernel's run-in-place shortcut both taken
// and not taken along the way, lane ticks both re-armed in place and
// run as checks, behind another tick's resume or behind a heap event at
// their instant, and the lane's fast-forward both taken and refused for
// each of its bounds. Every action the process sees is compared; the
// predicate's evaluations are not, for the kernel may make them at any
// instant between the events that can change it.
func TestSleepPolledMatchesSleepLoop(t *testing.T) {
	var alone, shared, sleeps, inPlace, rearmed, skipped, checked, fellBack int
	var refused [numBounds]int
	for seed := int64(1); seed <= 300; seed++ {
		got := matchReference(t, seed)
		alone += got.alone
		shared += got.shared
		sleeps += got.sleeps
		inPlace += got.counts.InPlaceSleeps
		rearmed += got.counts.Rearmed
		skipped += got.counts.Skipped
		checked += got.counts.Checked
		fellBack += got.counts.FellBack
		for b, n := range got.refused {
			refused[b] += n
		}
	}
	t.Logf("sleeps %d, in place %d; timers alone %d, shared %d; lane ticks re-armed in place %d (skipped %d), checked %d, fell back at %d instants; served one by one for the heap, the deadline, a ready poller, a partial interval alone: %v",
		sleeps, inPlace, alone, shared, rearmed, skipped, checked, fellBack, refused)
	if skipped == 0 || slices.Contains(refused[:], 0) {
		t.Fatalf("the lane skipped %d ticks and served %v one by one for the heap, the deadline, a ready poller, a partial interval alone: the scenarios must cover the fast-forward taken and refused for each bound",
			skipped, refused)
	}
	if inPlace == 0 || inPlace == sleeps {
		t.Fatalf("%d of %d Sleeps ended in place: the scenarios must cover Sleeps that end in place and Sleeps that park", inPlace, sleeps)
	}
	if alone == 0 || shared == 0 {
		t.Fatalf("timers fired alone at their instant %d times and beside other events %d times: the scenarios must cover both", alone, shared)
	}
	if rearmed == 0 || checked == 0 || fellBack == 0 {
		t.Fatalf("lane ticks re-armed in place %d times, ran their check %d times, fell back at %d instants for a heap event: the scenarios must cover all three",
			rearmed, checked, fellBack)
	}
}

// FuzzSleepPolled widens TestSleepPolledMatchesSleepLoop to any scenario
// seed. Its committed seeds under testdata/fuzz run in every go test.
func FuzzSleepPolled(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64) { matchReference(t, seed) })
}

// TestSleepPolledReturnsRemainder pins the contract on its own: the sleep
// ends at the first poll instant (every interval from the call, and the
// end) at which ready holds, and returns the unslept remainder. ready is
// pure, so when the kernel evaluates it is not part of the contract; what
// is pinned instead is how the lane serves the polls that fail. It skips
// the first sleep's at 20 and 40, before the Put at 45. The never-ready
// second sleep's 35 left at interval 20 hand over from the lane to the
// heap: its poll at 80 is served one by one, as the next interval is a
// partial one, and it ends at 95. The never-ready third sleep's six
// failing polls are all skipped.
func TestSleepPolledReturnsRemainder(t *testing.T) {
	k := NewKernel(1)
	defer k.Close()
	mb := NewMailbox[int](k)
	var left, woke, slept Time
	var skipped, served []int
	counted := func() {
		c := k.Counts()
		skipped, served = append(skipped, c.Skipped), append(served, c.Rearmed-c.Skipped)
	}
	never := func() bool { return false }
	k.Spawn("poller", func(p *Proc) {
		left = p.SleepPolled(95, 20, func() bool { return mb.Len() > 0 })
		woke = k.Now()
		counted()
		if rest := p.SleepPolled(left, 20, never); rest != 0 {
			t.Errorf("uninterrupted polled sleep returned %v, want 0", rest)
		}
		slept = k.Now()
		counted()
		p.SleepPolled(35, 5, never)
		counted()
	})
	k.At(45, func() { mb.Put(1) })
	if end := k.Run(); end != 130 {
		t.Errorf("run ended at %v, want 130", end)
	}
	if left != 35 || woke != 60 || slept != 95 {
		t.Errorf("woke at %v with %v left, then at %v; want 60 and 35, then 95", woke, left, slept)
	}
	if want := []int{2, 2, 8}; !slices.Equal(skipped, want) {
		t.Errorf("skipped %v lane ticks after each sleep, want %v", skipped, want)
	}
	if want := []int{0, 1, 1}; !slices.Equal(served, want) {
		t.Errorf("served %v failed lane ticks one by one after each sleep, want %v", served, want)
	}
}
