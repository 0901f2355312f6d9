package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// goroutinesSettleAt reports whether the goroutine count comes back to
// want. A stopped coroutine's goroutine is gone when stop returns; the
// retries only absorb goroutines other tests' runtimes are still reaping.
func goroutinesSettleAt(want int) (got int, ok bool) {
	for i := 0; i < 200; i++ {
		if got = runtime.NumGoroutine(); got <= want {
			return got, true
		}
		time.Sleep(time.Millisecond)
	}
	return got, false
}

// TestCloseEndsEveryBlockedState: whatever a process was doing when the
// run ended, Close unwinds it — its deferred calls run, its goroutine is
// gone — and a second Close has nothing left to do.
func TestCloseEndsEveryBlockedState(t *testing.T) {
	never := func() bool { return false }
	states := []struct {
		name  string
		block func(p *Proc, mb *Mailbox[int])
		until Time               // run this far before closing (0: not at all)
		after func(victim *Proc) // then, from outside the run
	}{
		{name: "never started", block: func(*Proc, *Mailbox[int]) { panic("the body of a never-started process ran") }},
		{name: "Sleep", until: 10, block: func(p *Proc, _ *Mailbox[int]) { p.Sleep(Second) }},
		{name: "SleepPolled", until: 10, block: func(p *Proc, _ *Mailbox[int]) { p.SleepPolled(Second, 3, never) }},
		{name: "Mailbox.Get", until: 10, block: func(p *Proc, mb *Mailbox[int]) { mb.Get(p) }},
		{name: "Park", until: 10, block: func(p *Proc, _ *Mailbox[int]) { p.park() }},
		{name: "killed, not yet unwound", until: 10, after: (*Proc).Kill, block: func(p *Proc, _ *Mailbox[int]) { p.Sleep(Second) }},
	}
	for _, st := range states {
		t.Run(st.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			k := NewKernel(1)
			mb := NewMailbox[int](k)
			unwound := false
			victim := k.Spawn("victim", func(p *Proc) {
				defer func() { unwound = true }()
				st.block(p, mb)
			})
			if st.until > 0 {
				k.RunUntil(st.until)
			}
			if st.after != nil {
				st.after(victim)
			}
			if victim.Finished() {
				t.Fatal("victim finished before Close: the state under test was not reached")
			}

			k.Close()
			if !victim.Finished() || k.LiveProcs() != 0 {
				t.Errorf("after Close: Finished() = %v, LiveProcs() = %d, want true and 0", victim.Finished(), k.LiveProcs())
			}
			if started := st.until > 0; unwound != started {
				t.Errorf("deferred call of the body ran = %v, want %v", unwound, started)
			}
			if got, ok := goroutinesSettleAt(before); !ok {
				t.Errorf("%d goroutines after Close, %d before the kernel existed", got, before)
			}
			k.Close()
		})
	}
}

// TestCloseSurfacesUnwindPanic: a body whose deferred call panics while
// Close unwinds it is a bug Close reports, like a panic during a run; the
// next Close carries on with the processes after it.
func TestCloseSurfacesUnwindPanic(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel(1)
	k.Spawn("bad", func(p *Proc) {
		defer func() { panic("boom") }()
		p.Sleep(Second)
	})
	bystander := k.Spawn("bystander", func(p *Proc) { p.Sleep(Second) })
	k.RunUntil(10)

	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, `process "bad" panicked: boom`) {
				t.Errorf("Close panicked with %q, want the process panic", msg)
			}
		}()
		k.Close()
		t.Error("Close returned normally over a body that panicked during unwind")
	}()
	k.Close()
	if !bystander.Finished() {
		t.Error("second Close left the bystander blocked")
	}
	if got, ok := goroutinesSettleAt(before); !ok {
		t.Errorf("%d goroutines after Close, %d before the kernel existed", got, before)
	}
}
