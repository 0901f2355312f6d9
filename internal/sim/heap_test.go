package sim

import (
	"strings"
	"testing"
)

// TestEmptyHeapPopDiagnostic: consuming from an empty event queue is a
// kernel invariant violation and must fail with a diagnosable message, not
// a raw index-out-of-range panic.
func TestEmptyHeapPopDiagnostic(t *testing.T) {
	for _, op := range []struct {
		name string
		call func(h *eventHeap)
	}{
		{"pop", func(h *eventHeap) { h.pop() }},
		{"peek", func(h *eventHeap) { h.peek() }},
	} {
		t.Run(op.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s on empty heap did not panic", op.name)
				}
				msg, ok := r.(string)
				if !ok || !strings.Contains(msg, "empty event queue") {
					t.Fatalf("%s panic = %v, want a sim: empty-event-queue diagnostic", op.name, r)
				}
			}()
			op.call(&eventHeap{})
		})
	}
}

// TestHeapPopOrderAfterMixedOps: interleaved pushes and pops preserve
// (time, seq) ordering — the determinism foundation everything rests on.
func TestHeapPopOrderAfterMixedOps(t *testing.T) {
	var h eventHeap
	push := func(at Time, seq uint64) { h.push(scheduled{at: at, seq: seq}) }
	push(30, 3)
	push(10, 1)
	push(20, 2)
	if got := h.pop(); got.at != 10 {
		t.Fatalf("pop = %v, want t=10", got.at)
	}
	push(10, 4)
	push(5, 5)
	want := []Time{5, 10, 20, 30}
	for i, w := range want {
		if got := h.pop(); got.at != w {
			t.Fatalf("pop %d = %v, want %v", i, got.at, w)
		}
	}
	if h.Len() != 0 {
		t.Fatalf("heap not drained: %d left", h.Len())
	}
}

// TestDrainedHeapReleasesClosures: a popped event's slot no longer holds
// its closure, so a drained queue pins nothing its events captured (a
// process, a delivery) up to its high-water mark.
func TestDrainedHeapReleasesClosures(t *testing.T) {
	var h eventHeap
	for i := 0; i < 8; i++ {
		h.push(scheduled{at: Time(8 - i), seq: uint64(i), fn: func() {}})
	}
	for h.Len() > 0 {
		h.pop()
	}
	for i, ev := range h.items[:cap(h.items)] {
		if ev.fn != nil {
			t.Errorf("slot %d of the drained heap still holds a closure", i)
		}
	}
}
