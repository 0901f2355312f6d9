package event

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"unsafe"
)

// TestHeld checks the 32-bit held form: its size, an exact round trip for
// every determinant that fits, and a loud failure naming the determinant
// for each field one past its range.
func TestHeld(t *testing.T) {
	if got := unsafe.Sizeof(Held{}); got != 28 {
		t.Errorf("Held is %d bytes, want 28", got)
	}

	const top = math.MaxUint32
	r := rand.New(rand.NewSource(29))
	fits := []Determinant{
		{ID: EventID{Creator: math.MaxInt32, Clock: top}, Sender: math.MaxInt32, SendSeq: top,
			Parent: EventID{Creator: math.MaxInt32, Clock: top}, Lamport: top},
		{ID: EventID{Creator: 3, Clock: 1}, Sender: 5, SendSeq: 1, Parent: EventID{Creator: 7}, Lamport: 1},
		{ID: EventID{Creator: 0, Clock: 1}, Sender: NoRank, Parent: EventID{Creator: NoRank}},
	}
	for i := 0; i < 200; i++ {
		fits = append(fits, Determinant{
			ID:      EventID{Creator: Rank(r.Int31()), Clock: uint64(r.Uint32())},
			Sender:  Rank(r.Int31()),
			SendSeq: uint64(r.Uint32()),
			Parent:  EventID{Creator: Rank(r.Int31()), Clock: uint64(r.Uint32())},
			Lamport: uint64(r.Uint32()),
		})
	}
	for _, d := range fits {
		if got := Pack(d).Det(); got != d {
			t.Fatalf("round trip of %#v = %#v", d, got)
		}
	}

	base := Determinant{ID: EventID{Creator: 1, Clock: 9}, Sender: 2, SendSeq: 4, Parent: EventID{Creator: 2, Clock: 3}, Lamport: 12}
	for _, tc := range []struct {
		field string
		widen func(*Determinant)
	}{
		{"clock", func(d *Determinant) { d.ID.Clock = 1 << 32 }},
		{"send seq", func(d *Determinant) { d.SendSeq = 1 << 32 }},
		{"parent clock", func(d *Determinant) { d.Parent.Clock = 1 << 32 }},
		{"lamport", func(d *Determinant) { d.Lamport = 1 << 32 }},
	} {
		d := base
		tc.widen(&d)
		want := fmt.Sprintf("event: %v (lamport %d) ", d, d.Lamport)
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, want) {
					t.Errorf("%s at 2³²: recovered %q, want a message starting %q", tc.field, msg, want)
				}
			}()
			Pack(d)
		}()
	}
}
