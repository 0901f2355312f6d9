package causal

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"mpichv/internal/event"
)

// TestHeldForm checks the reducers' use of the 32-bit held form
// (event.Held, whose round trip internal/event tests): the record sizes
// the no-Event-Logger memory budget rests on, and a loud failure naming
// the determinant, through every reducer, for every field that does not
// fit.
func TestHeldForm(t *testing.T) {
	if got := unsafe.Sizeof(event.Held{}); got != 28 {
		t.Errorf("event.Held is %d bytes, want 28", got)
	}
	if got := unsafe.Sizeof(gnode{}); got != 32 {
		t.Errorf("gnode is %d bytes, want 32", got)
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
		want := fmt.Sprintf("event: %v (lamport %d) ", d, d.Lamport)
		for _, via := range Names() {
			func() {
				defer func() {
					if msg, _ := recover().(string); !strings.HasPrefix(msg, want) {
						t.Errorf("%s at 2³² through %s: recovered %q, want a message starting %q", tc.field, via, msg, want)
					}
				}()
				New(via, 0, 4).AddLocal(d)
			}()
		}
	}
}
