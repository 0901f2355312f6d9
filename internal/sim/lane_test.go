package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// laneCase is one directed scenario around the poll lane's fast-forward:
// setup spawns pollers blocking through by and arranges events around
// them. The kernel then runs to the end, or first until pauseAt when it is
// set, and then the action setup returned, if any, is taken between the
// two runs.
type laneCase struct {
	name    string
	setup   func(k *Kernel, by blocking, logf func(string, ...any)) (between func())
	pauseAt Time
}

// run plays the case and returns every action as "now action", through
// the end of the run, with the kernel's counts.
func (c laneCase) run(by blocking) ([]string, Counts) {
	k := NewKernel(1)
	defer k.Close()
	var log []string
	logf := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%d %s", int64(k.now), fmt.Sprintf(format, args...)))
	}
	between := c.setup(k, by, logf)
	if c.pauseAt > 0 {
		k.RunUntil(c.pauseAt)
		logf("paused")
		if between != nil {
			between()
		}
	}
	k.Run()
	logf("end live=%d drained=%v", k.LiveProcs(), k.Drained())
	return log, k.counts
}

// Every poller below polls its mailbox at the compute poll's interval.
const laneEvery = 500 * Microsecond

// spawnPoller starts a process that polls its mailbox through by for d,
// logging each wake and draining what it finds, until d is slept; it
// logs its exit, also when killed.
func spawnPoller(k *Kernel, by blocking, logf func(string, ...any), name string, d Time) (*Proc, *Mailbox[int]) {
	mb := NewMailbox[int](k)
	ready := func() bool { return mb.Len() > 0 }
	p := k.Spawn(name, func(p *Proc) {
		defer logf("%s exits", name)
		for left := d; left > 0; {
			left = by.poll(p, left, laneEvery, ready)
			logf("%s woke left=%d", name, int64(left))
			for v, ok := mb.TryGet(); ok; v, ok = mb.TryGet() {
				logf("%s drained %d", name, v)
			}
		}
	})
	return p, mb
}

// lonePoll is a 10 s poll that nothing interrupts.
func lonePoll(k *Kernel, by blocking, logf func(string, ...any)) func() {
	spawnPoller(k, by, logf, "p0", 10*Second)
	return nil
}

// midStretch is an instant off the poll grid, seconds into a 10 s poll.
const midStretch = 3*Second + 123457

// TestLaneFastForward plays directed scenarios that put the lane's
// fast-forward in the middle of a long poll, and requires each to act at
// the same instants, in the same order, as the reference's Sleep loop —
// plus what each case pins on its own.
func TestLaneFastForward(t *testing.T) {
	cases := []struct {
		laneCase
		check func(t *testing.T, log []string, c Counts)
	}{
		{
			laneCase: laneCase{name: "lone 10 s poll", setup: lonePoll},
			check: func(t *testing.T, log []string, c Counts) {
				// Every interval's poll fails but the last, which ends the
				// sleep; the lane skips them all and serves that one.
				if c.Rearmed != 19999 || c.Skipped != c.Rearmed {
					t.Errorf("%d polls re-armed, %d of them skipped; want 19999, all", c.Rearmed, c.Skipped)
				}
				if want := "10000000000 p0 woke left=0"; !slices.Contains(log, want) {
					t.Errorf("no %q in %q", want, log)
				}
			},
		},
		{
			laneCase: laneCase{name: "off-grid Put mid-stretch", setup: func(k *Kernel, by blocking, logf func(string, ...any)) func() {
				_, mb := spawnPoller(k, by, logf, "p0", 10*Second)
				k.At(midStretch, func() { logf("put"); mb.Put(1) })
				return nil
			}},
			check: func(t *testing.T, log []string, c Counts) {
				if want := "3000500000 p0 woke left=6999500000"; !slices.Contains(log, want) {
					t.Errorf("no %q in %q", want, log)
				}
				if c.Rearmed-c.Skipped != 0 {
					t.Errorf("%d failed polls served one by one, want 0", c.Rearmed-c.Skipped)
				}
			},
		},
		{
			laneCase: laneCase{name: "Kill mid-stretch", setup: func(k *Kernel, by blocking, logf func(string, ...any)) func() {
				p, _ := spawnPoller(k, by, logf, "p0", 10*Second)
				k.At(midStretch, func() { logf("kill"); p.Kill() })
				return nil
			}},
			check: func(t *testing.T, log []string, _ Counts) {
				if want := fmt.Sprintf("%d p0 exits", int64(midStretch)); !slices.Contains(log, want) {
					t.Errorf("no %q in %q", want, log)
				}
			},
		},
		{
			laneCase: laneCase{name: "RunUntil deadline mid-stretch", setup: lonePoll, pauseAt: midStretch},
			check: func(t *testing.T, log []string, c Counts) {
				want, counts := laneCase{setup: lonePoll}.run(kernelBlocking)
				if log = slices.DeleteFunc(log, func(s string) bool { return s == fmt.Sprintf("%d paused", int64(midStretch)) }); !slices.Equal(log, want) {
					t.Errorf("paused run acted as\n  %q\nthe uninterrupted one as\n  %q", log, want)
				}
				if c.Rearmed != counts.Rearmed || c.Skipped == 0 {
					t.Errorf("%d polls re-armed, %d skipped; want %d, some", c.Rearmed, c.Skipped, counts.Rearmed)
				}
			},
		},
		{
			// The tick right after the deadline belongs to the next run: a
			// Put made between the two runs is seen at it.
			laneCase: laneCase{name: "Put between RunUntil and Run", pauseAt: 3*Second + laneEvery - 1, setup: func(k *Kernel, by blocking, logf func(string, ...any)) func() {
				_, mb := spawnPoller(k, by, logf, "p0", 10*Second)
				return func() { mb.Put(1) }
			}},
			check: func(t *testing.T, log []string, _ Counts) {
				if want := "3000500000 p0 woke left=6999500000"; !slices.Contains(log, want) {
					t.Errorf("no %q in %q", want, log)
				}
			},
		},
		{
			laneCase: laneCase{name: "Background sampler mid-stretch", setup: func(k *Kernel, by blocking, logf func(string, ...any)) func() {
				var sample func()
				sample = func() { logf("sample"); k.Background(k.now+Second+7, sample) }
				k.Background(midStretch, sample)
				return lonePoll(k, by, logf)
			}},
			check: func(t *testing.T, log []string, _ Counts) {
				want, _ := laneCase{setup: lonePoll}.run(kernelBlocking)
				if log = slices.DeleteFunc(log, func(s string) bool { return strings.HasSuffix(s, " sample") }); !slices.Equal(log, want) {
					t.Errorf("sampled run acted as\n  %q\nthe unsampled one as\n  %q", log, want)
				}
			},
		},
		{
			laneCase: laneCase{name: "two pollers on one phase", setup: func(k *Kernel, by blocking, logf func(string, ...any)) func() {
				_, mb0 := spawnPoller(k, by, logf, "p0", 10*Second)
				_, mb1 := spawnPoller(k, by, logf, "p1", 10*Second)
				// p0 wakes at 2.0005 s and re-polls on the same phase; then
				// both are woken at one instant.
				k.At(2*Second+1, func() { mb0.Put(1) })
				k.At(midStretch, func() { mb1.Put(2); mb0.Put(3) })
				return nil
			}},
			check: func(t *testing.T, log []string, _ Counts) {
				for _, want := range []string{"3000500000 p0 woke left=6999500000", "3000500000 p1 woke left=6999500000"} {
					if !slices.Contains(log, want) {
						t.Errorf("no %q in %q", want, log)
					}
				}
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, _ := c.run(reference)
			got, counts := c.run(kernelBlocking)
			if !slices.Equal(got, want) {
				t.Errorf("SleepPolled acted as\n  %q\nthe reference as\n  %q", got, want)
			}
			c.check(t, got, counts)
		})
	}
}

// TestLaneRefusalScansOnce pins that an entry due at the lane head's
// instant, which keeps the lane from skipping, is found by one scan of the
// lane, not one per tick served before it: 64 pollers share a phase, the
// last is made ready off the grid, and the predicate calls stay linear in
// the pollers (a rescan per tick would make about 64²/2 more).
func TestLaneRefusalScansOnce(t *testing.T) {
	const n = 64
	k := NewKernel(1)
	defer k.Close()
	calls := 0
	var last *Mailbox[int]
	for i := range n {
		mb := NewMailbox[int](k)
		last = mb
		k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.SleepPolled(Second, laneEvery, func() bool { calls++; return mb.Len() > 0 })
		})
	}
	k.At(midStretch%Second, func() { last.Put(1) })
	k.Run()
	if calls > 4*n {
		t.Errorf("%d predicate calls for %d pollers, want at most %d", calls, n, 4*n)
	}
}
