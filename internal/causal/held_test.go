package causal

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"mpichv/internal/event"
)

// TestHeldForm checks the reducers' 32-bit held form: an exact round trip
// for every determinant that fits, a loud failure naming the determinant
// for every field that does not, and the record sizes the no-Event-Logger
// memory budget rests on.
func TestHeldForm(t *testing.T) {
	if got := unsafe.Sizeof(heldDet{}); got != 28 {
		t.Errorf("heldDet is %d bytes, want 28", got)
	}
	if got := unsafe.Sizeof(gnode{}); got != 32 {
		t.Errorf("gnode is %d bytes, want 32", got)
	}

	const top = math.MaxUint32
	r := rand.New(rand.NewSource(29))
	fits := []event.Determinant{
		{ID: event.EventID{Creator: math.MaxInt32, Clock: top}, Sender: math.MaxInt32, SendSeq: top,
			Parent: event.EventID{Creator: math.MaxInt32, Clock: top}, Lamport: top},
		{ID: event.EventID{Creator: 3, Clock: 1}, Sender: 5, SendSeq: 1, Parent: event.EventID{Creator: 7}, Lamport: 1},
		{ID: event.EventID{Creator: 0, Clock: 1}, Sender: event.NoRank, Parent: event.EventID{Creator: event.NoRank}},
	}
	for i := 0; i < 200; i++ {
		fits = append(fits, event.Determinant{
			ID:      event.EventID{Creator: event.Rank(r.Int31()), Clock: uint64(r.Uint32())},
			Sender:  event.Rank(r.Int31()),
			SendSeq: uint64(r.Uint32()),
			Parent:  event.EventID{Creator: event.Rank(r.Int31()), Clock: uint64(r.Uint32())},
			Lamport: uint64(r.Uint32()),
		})
	}
	for _, d := range fits {
		if got := pack(d).det(); got != d {
			t.Fatalf("round trip of %#v = %#v", d, got)
		}
	}

	base := event.Determinant{ID: event.EventID{Creator: 1, Clock: 9}, Sender: 2, SendSeq: 4, Parent: event.EventID{Creator: 2, Clock: 3}, Lamport: 12}
	for _, tc := range []struct {
		field string
		widen func(*event.Determinant)
	}{
		{"clock", func(d *event.Determinant) { d.ID.Clock = 1 << 32 }},
		{"send seq", func(d *event.Determinant) { d.SendSeq = 1 << 32 }},
		{"parent clock", func(d *event.Determinant) { d.Parent.Clock = 1 << 32 }},
		{"lamport", func(d *event.Determinant) { d.Lamport = 1 << 32 }},
	} {
		d := base
		tc.widen(&d)
		want := fmt.Sprintf("causal: %v (lamport %d) ", d, d.Lamport)
		for _, via := range append([]string{"pack"}, Names()...) {
			func() {
				defer func() {
					if msg, _ := recover().(string); !strings.HasPrefix(msg, want) {
						t.Errorf("%s at 2³² through %s: recovered %q, want a message starting %q", tc.field, via, msg, want)
					}
				}()
				if via == "pack" {
					pack(d)
				} else {
					New(via, 0, 4).AddLocal(d)
				}
			}()
		}
	}
}
