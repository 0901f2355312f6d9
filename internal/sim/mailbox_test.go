package sim

import (
	"fmt"
	"strings"
	"testing"
)

func TestMailboxFIFO(t *testing.T) {
	k := NewKernel(1)
	mb := NewMailbox[int](k)
	var got []int
	k.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, mb.Get(p))
		}
	})
	k.At(10, func() { mb.Put(1); mb.Put(2) })
	k.At(20, func() { mb.Put(3) })
	k.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestMailboxGetBlocksUntilPut(t *testing.T) {
	k := NewKernel(1)
	mb := NewMailbox[string](k)
	var when Time
	k.Spawn("consumer", func(p *Proc) {
		mb.Get(p)
		when = k.Now()
	})
	k.At(500, func() { mb.Put("x") })
	k.Run()
	if when != 500 {
		t.Fatalf("consumer woke at %v, want 500", when)
	}
}

func TestMailboxTryGet(t *testing.T) {
	k := NewKernel(1)
	mb := NewMailbox[int](k)
	if _, ok := mb.TryGet(); ok {
		t.Fatal("TryGet on empty mailbox returned ok")
	}
	mb.Put(7)
	v, ok := mb.TryGet()
	if !ok || v != 7 {
		t.Fatalf("TryGet = (%d, %v), want (7, true)", v, ok)
	}
	if mb.Len() != 0 {
		t.Fatalf("Len = %d after drain, want 0", mb.Len())
	}
}

func TestMailboxKilledWaiterDoesNotEatWakeup(t *testing.T) {
	k := NewKernel(1)
	mb := NewMailbox[int](k)
	var victim *Proc
	victimGot := false
	victim = k.Spawn("victim", func(p *Proc) {
		mb.Get(p)
		victimGot = true
	})
	survivorGot := 0
	k.At(10, func() { victim.Kill() })
	k.At(15, func() {
		// The survivor takes over the reader slot the victim died in.
		k.Spawn("survivor", func(p *Proc) {
			survivorGot = mb.Get(p)
		})
	})
	k.At(20, func() { mb.Put(99) })
	k.Run()
	if victimGot {
		t.Fatal("killed waiter received an item")
	}
	if survivorGot != 99 {
		t.Fatalf("survivor got %d, want 99 (a kill must free the reader slot)", survivorGot)
	}
}

func TestMailboxSecondReaderPanics(t *testing.T) {
	k := NewKernel(1)
	defer k.Close()
	mb := NewMailbox[int](k)
	k.Spawn("first", func(p *Proc) { mb.Get(p) })
	k.Spawn("second", func(p *Proc) { mb.Get(p) })
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "a second reader blocks in Mailbox.Get") {
			t.Fatalf("recovered %v, want the second-reader panic", r)
		}
	}()
	k.Run()
}

// TestMailboxRingWrapStress drives the ring buffer through many
// grow/wrap/drain cycles with mixed batch sizes, checking FIFO order
// end to end — the regression guard for the ring-storage rewrite.
func TestMailboxRingWrapStress(t *testing.T) {
	k := NewKernel(1)
	m := NewMailbox[int](k)
	next, want := 0, 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 1+round%13; i++ {
			m.Put(next)
			next++
		}
		for i := 0; i < 1+round%7 && m.Len() > 0; i++ {
			v, ok := m.TryGet()
			if !ok || v != want {
				t.Fatalf("round %d: got (%d,%v), want %d", round, v, ok, want)
			}
			want++
		}
	}
	for m.Len() > 0 {
		v, _ := m.TryGet()
		if v != want {
			t.Fatalf("drain: got %d, want %d", v, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("consumed %d items, produced %d", want, next)
	}
}
