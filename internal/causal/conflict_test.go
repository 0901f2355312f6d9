package causal

import (
	"testing"

	"mpichv/internal/event"
)

func det(c event.Rank, clock uint64, sender event.Rank, seq uint64) event.Determinant {
	return event.Determinant{
		ID:      event.EventID{Creator: c, Clock: clock},
		Sender:  sender,
		SendSeq: seq,
		Lamport: clock,
	}
}

// TestMergeDetectsIDConflict: every reducer latches a re-created
// determinant ID (same creator and clock, different content) at merge
// time, keeps the held copy, and clears the latch once taken.
func TestMergeDetectsIDConflict(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			r := New(name, 0, 4)
			orig := det(2, 5, 3, 7)
			r.Merge(2, []event.Determinant{det(2, 4, 3, 6), orig})
			if _, ok := r.TakeIDConflict(); ok {
				t.Fatal("clean merge latched a conflict")
			}

			// The same ID re-created with a different send: the signature
			// of a regressed incarnation of rank 2.
			forged := det(2, 5, 1, 9)
			r.Merge(1, []event.Determinant{forged})
			latched, ok := r.TakeIDConflict()
			if !ok {
				t.Fatal("re-created determinant ID not latched")
			}
			if latched != orig {
				t.Fatalf("latched %v, want the held copy %v", latched, orig)
			}
			if _, again := r.TakeIDConflict(); again {
				t.Fatal("latch not cleared by TakeIDConflict")
			}

			// The held copy must have won: piggybacks still carry orig.
			held := r.HeldFor(2)
			found := false
			for _, d := range held {
				if d.ID == orig.ID {
					found = true
					if d != orig {
						t.Fatalf("held copy replaced by conflicting insert: %v", d)
					}
				}
			}
			if !found {
				t.Fatal("original determinant vanished from the held set")
			}
		})
	}
}

// TestExactDuplicateIsNotAConflict: re-merging identical determinants (the
// normal piggyback redundancy) must never latch.
func TestExactDuplicateIsNotAConflict(t *testing.T) {
	for _, name := range Names() {
		r := New(name, 0, 4)
		ds := []event.Determinant{det(2, 1, 3, 1), det(2, 2, 3, 2)}
		r.Merge(2, ds)
		r.Merge(1, ds) // same content via another path
		r.AddLocal(det(0, 1, 2, 9))
		if _, ok := r.TakeIDConflict(); ok {
			t.Fatalf("%s: exact duplicates latched a conflict", name)
		}
	}
}

// TestConflictBelowStabilityHorizonUndetectable: collected determinants
// can no longer be compared — no latch, no false positive.
func TestConflictBelowStabilityHorizonUndetectable(t *testing.T) {
	for _, name := range Names() {
		r := New(name, 0, 4)
		r.Merge(2, []event.Determinant{det(2, 1, 3, 1)})
		r.Stable(stableVec(0, 0, 1, 0))
		r.Merge(1, []event.Determinant{det(2, 1, 1, 8)}) // would conflict if held
		if _, ok := r.TakeIDConflict(); ok {
			t.Fatalf("%s: latched a conflict against a collected determinant", name)
		}
	}
}
