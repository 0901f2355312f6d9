package sim

import "testing"

func TestProcSleepAdvancesClock(t *testing.T) {
	k := NewKernel(1)
	var woke Time
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(100 * Microsecond)
		woke = k.Now()
	})
	k.Run()
	if woke != 100*Microsecond {
		t.Fatalf("woke at %v, want 100µs", woke)
	}
	if k.LiveProcs() != 0 {
		t.Fatalf("live procs = %d after completion, want 0", k.LiveProcs())
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	k := NewKernel(1)
	var order []string
	k.Spawn("a", func(p *Proc) {
		p.Sleep(10)
		order = append(order, "a10")
		p.Sleep(20) // wakes at 30
		order = append(order, "a30")
	})
	k.Spawn("b", func(p *Proc) {
		p.Sleep(20)
		order = append(order, "b20")
		p.Sleep(20) // wakes at 40
		order = append(order, "b40")
	})
	k.Run()
	want := []string{"a10", "b20", "a30", "b40"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestKillParkedProc(t *testing.T) {
	k := NewKernel(1)
	reachedEnd := false
	var victim *Proc
	victim = k.Spawn("victim", func(p *Proc) {
		p.Sleep(Second)
		reachedEnd = true
	})
	k.At(100, func() { victim.Kill() })
	k.Run()
	if reachedEnd {
		t.Fatal("killed process ran past its blocking point")
	}
	if !victim.Killed() {
		t.Fatal("Killed() = false")
	}
	if k.LiveProcs() != 0 {
		t.Fatalf("live procs = %d, want 0", k.LiveProcs())
	}
}

func TestKillBeforeStart(t *testing.T) {
	k := NewKernel(1)
	ran := false
	var victim *Proc
	// Spawn schedules the start event; killing from an event scheduled at the
	// same instant but earlier in sequence order must prevent the body from
	// ever running. We schedule the spawn from inside an event so the kill
	// event precedes the start event.
	k.At(0, func() {
		victim = k.Spawn("victim", func(p *Proc) { ran = true })
		victim.Kill()
	})
	k.Run()
	if ran {
		t.Fatal("killed-before-start process body ran")
	}
}

func TestKillIsIdempotent(t *testing.T) {
	k := NewKernel(1)
	var victim *Proc
	victim = k.Spawn("victim", func(p *Proc) { p.Sleep(Second) })
	k.At(10, func() {
		victim.Kill()
		victim.Kill()
	})
	k.Run()
	if k.LiveProcs() != 0 {
		t.Fatalf("live procs = %d, want 0", k.LiveProcs())
	}
}

func TestYieldLetsPeersRun(t *testing.T) {
	k := NewKernel(1)
	var order []string
	k.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Yield()
		order = append(order, "a2")
	})
	k.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
	})
	k.Run()
	// a starts first (spawned first), yields; b then runs to completion; a
	// resumes.
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestProcPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("process panic did not propagate out of Run")
		}
	}()
	k := NewKernel(1)
	k.Spawn("bad", func(p *Proc) { panic("boom") })
	k.Run()
}

func TestNegativeSleepPanics(t *testing.T) {
	k := NewKernel(1)
	panicked := false
	k.Spawn("bad", func(p *Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
				panic(ErrKilled) // unwind cleanly through the wrapper
			}
		}()
		p.Sleep(-1)
	})
	k.Run()
	if !panicked {
		t.Fatal("negative sleep did not panic")
	}
}
