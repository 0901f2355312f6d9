package sim

import (
	"fmt"
	"slices"
	"testing"
)

// sleepCase is one directed scenario around a process's Sleep: the body
// the process runs, events arranged around it, and how the kernel is
// driven before it is closed.
type sleepCase struct {
	name    string
	body    func(p *Proc, sleep func(Time), logf func(string))
	arrange func(k *Kernel, p *Proc, logf func(string))
	drive   func(k *Kernel)
	// The kernel's counts once the case ran through Sleep.
	parks, inPlace int
}

// run plays the case with sleep as the process's Sleep and returns every
// action as "now action", through Close, with the kernel's counts.
func (c sleepCase) run(sleep func(*Proc, Time)) ([]string, Counts) {
	k := NewKernel(1)
	var log []string
	logf := func(s string) { log = append(log, fmt.Sprintf("%d %s", int64(k.now), s)) }
	p := k.Spawn("sleeper", func(p *Proc) {
		c.body(p, func(d Time) { sleep(p, d) }, logf)
		logf("body returned")
	})
	if c.arrange != nil {
		c.arrange(k, p, logf)
	}
	c.drive(k)
	logf(fmt.Sprintf("driven: queue=%d live=%d finished=%v", k.QueueLen(), k.LiveProcs(), p.Finished()))
	k.Close()
	logf(fmt.Sprintf("closed: finished=%v", p.Finished()))
	return log, k.counts
}

// TestSleepInPlaceGuards: a Sleep ends in place only when its wake-up
// would be the next event of the run. A kill or a Stop landing at the
// wake-up instant, a Stop from the sleeper itself, a deadline one tick
// short, a killed process's deferred call and a Close all make it park;
// a deadline exactly at the wake-up does not. Each case acts at the same
// instants, in the same order, as the reference's always-pushed wake-up.
func TestSleepInPlaceGuards(t *testing.T) {
	sleepTen := func(_ *Proc, sleep func(Time), logf func(string)) {
		logf("sleep 10")
		sleep(10)
		logf("woke")
	}
	run := func(k *Kernel) { k.Run() }
	// deferredSleep sleeps 2 from a deferred call while the body unwinds,
	// short of any pending event; the sleep must unwind with ErrKilled,
	// never return.
	deferredSleep := func(block func(p *Proc, sleep func(Time))) func(*Proc, func(Time), func(string)) {
		return func(p *Proc, sleep func(Time), logf func(string)) {
			defer func() {
				logf("deferred sleep 2")
				sleep(2)
				logf("deferred sleep returned")
			}()
			block(p, sleep)
		}
	}
	cases := []sleepCase{
		{
			name: "kill at the wake-up instant", body: sleepTen, drive: run, parks: 1,
			arrange: func(k *Kernel, p *Proc, logf func(string)) {
				k.At(10, func() { logf("kill"); p.Kill() })
			},
		},
		{
			name: "Stop from an event at the wake-up instant", body: sleepTen, drive: run, parks: 1,
			arrange: func(k *Kernel, _ *Proc, logf func(string)) {
				k.At(10, func() { logf("stop"); k.Stop() })
			},
		},
		{
			name: "Stop from the sleeper", drive: run, parks: 1,
			body: func(p *Proc, sleep func(Time), logf func(string)) {
				logf("stop")
				p.Kernel().Stop()
				sleepTen(p, sleep, logf)
			},
		},
		{
			name: "deadline at the wake-up instant", body: sleepTen, inPlace: 1,
			drive: func(k *Kernel) { k.RunUntil(10) },
		},
		{
			name: "deadline one tick short", body: sleepTen, parks: 1,
			drive: func(k *Kernel) { k.RunUntil(9) },
		},
		{
			name: "killed process's deferred call", drive: run, parks: 2,
			body: deferredSleep(func(_ *Proc, sleep func(Time)) { sleep(10) }),
			arrange: func(k *Kernel, p *Proc, logf func(string)) {
				k.At(5, func() { logf("kill"); p.Kill() })
			},
		},
		{
			name: "deferred call during Close", drive: run, parks: 2,
			body: deferredSleep(func(p *Proc, _ func(Time)) { p.Park() }),
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, _ := c.run(sleepPushed)
			got, counts := c.run((*Proc).Sleep)
			if !slices.Equal(got, want) {
				t.Errorf("Sleep acted as\n  %q\nthe reference as\n  %q", got, want)
			}
			if counts.Parks != c.parks || counts.InPlaceSleeps != c.inPlace {
				t.Errorf("%d parks and %d in-place sleeps, want %d and %d", counts.Parks, counts.InPlaceSleeps, c.parks, c.inPlace)
			}
		})
	}
}
