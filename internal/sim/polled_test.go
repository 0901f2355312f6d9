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
// and the kernel's count of how lane ticks were served.
type pollRun struct {
	log           []string
	alone, shared int
	lane          struct{ rearmed, checked, fellBack int }
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
	for i, script := range sc.scripts {
		name := fmt.Sprintf("p%d", i)
		mb := boxes[i]
		ready := func() bool {
			logf(name, "poll %d", mb.Len())
			return mb.Len() > 0
		}
		procs[i] = k.Spawn(name, func(p *Proc) {
			logf(name, "start")
			for n, op := range script {
				switch op.kind {
				case opSleep:
					by.sleep(p, op.d)
				case opGet:
					logf(name, "got %d", mb.Get(p))
				case opPoll:
					for left := op.d; left > 0; {
						left = by.poll(p, left, op.every, ready)
						logf(name, "woke left=%d", int64(left))
						for v, ok := mb.TryGet(); ok; v, ok = mb.TryGet() {
							logf(name, "drained %d", v)
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
	run.lane = k.pollStats
	return run
}

// matchReference runs the scenario of seed through Sleep and SleepPolled
// and through the reference, fails t at the first action where the two
// differ, and returns the SleepPolled run.
func matchReference(t *testing.T, seed int64) pollRun {
	t.Helper()
	sc := genPollScenario(rand.New(rand.NewSource(seed)))
	want := runPollScenario(sc, reference)
	got := runPollScenario(sc, blocking{sleep: (*Proc).Sleep, poll: (*Proc).SleepPolled})
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

// TestSleepPolledMatchesSleepLoop is the equivalence SleepPolled promises:
// over generated scenarios — Puts landing on poll instants and on other
// processes' wake-ups, kills mid-sleep, a RunUntil deadline between ticks
// with the run resumed, Stop from an event — every action happens at the
// same virtual time and in the same order whether processes block through
// Sleep and SleepPolled or through the reference, with the kernel's
// run-in-place shortcut both taken and not taken along the way, and lane
// ticks both re-armed in place and run as checks, behind another tick's
// resume or behind a heap event at their instant.
func TestSleepPolledMatchesSleepLoop(t *testing.T) {
	var alone, shared, rearmed, checked, fellBack int
	for seed := int64(1); seed <= 300; seed++ {
		got := matchReference(t, seed)
		alone += got.alone
		shared += got.shared
		rearmed += got.lane.rearmed
		checked += got.lane.checked
		fellBack += got.lane.fellBack
	}
	t.Logf("timers alone %d, shared %d; lane ticks re-armed in place %d, checked %d, fell back at %d instants", alone, shared, rearmed, checked, fellBack)
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

// TestSleepPolledReturnsRemainder pins the contract on its own: polls fall
// every interval from the call and once at the end, the first true one ends
// the sleep, and the unslept remainder is returned.
func TestSleepPolledReturnsRemainder(t *testing.T) {
	k := NewKernel(1)
	defer k.Close()
	mb := NewMailbox[int](k)
	var polls []Time
	var left, woke Time
	k.Spawn("poller", func(p *Proc) {
		left = p.SleepPolled(95, 20, func() bool {
			polls = append(polls, p.Now())
			return mb.Len() > 0
		})
		woke = p.Now()
		if rest := p.SleepPolled(left, 20, func() bool { return false }); rest != 0 {
			t.Errorf("uninterrupted polled sleep returned %v, want 0", rest)
		}
	})
	k.At(45, func() { mb.Put(1) })
	if end := k.Run(); end != 95 {
		t.Errorf("run ended at %v, want 95", end)
	}
	if want := []Time{20, 40, 60}; !slices.Equal(polls, want) {
		t.Errorf("polled at %v, want %v", polls, want)
	}
	if left != 35 || woke != 60 {
		t.Errorf("woke at %v with %v left, want 60 and 35", woke, left)
	}
}
