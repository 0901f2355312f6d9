package causal

import (
	"testing"

	"mpichv/internal/causal/sparsevec"
	"mpichv/internal/event"
)

// fig3Scenario drives the causal-inference situation of the paper's
// Figure 3: P3 must send to P2 having never exchanged with it directly.
// Graph-based protocols infer from P2's latest event (received through P1)
// that P2 already knows part of the history; Vcausal cannot.
//
// Script (4 processes):
//
//	u = (1,1): P1 receives from P0
//	x = (2,1): P2 receives m1 from P1, piggyback {u}, parent u
//	v = (1,2): P1 receives m2 from P2, piggyback {x}, parent x
//	w = (3,1): P3 receives m3 from P1, piggyback {u,x,v}, parent v
//	then P3 sends m4 to P2.
func fig3Scenario(t *testing.T, name string) []event.Determinant {
	t.Helper()
	const np = 4
	rs := make([]Reducer, np)
	for i := range rs {
		rs[i] = New(name, event.Rank(i), np)
	}
	u := event.Determinant{ID: event.EventID{Creator: 1, Clock: 1}, Sender: 0, SendSeq: 1, Lamport: 1}
	x := event.Determinant{ID: event.EventID{Creator: 2, Clock: 1}, Sender: 1, SendSeq: 1, Parent: u.ID, Lamport: 2}
	v := event.Determinant{ID: event.EventID{Creator: 1, Clock: 2}, Sender: 2, SendSeq: 1, Parent: x.ID, Lamport: 3}
	w := event.Determinant{ID: event.EventID{Creator: 3, Clock: 1}, Sender: 1, SendSeq: 2, Parent: v.ID, Lamport: 4}

	rs[1].AddLocal(u)

	pb, _ := rs[1].AppendPiggybackFor(2, nil) // m1
	rs[2].Merge(1, pb)
	rs[2].AddLocal(x)

	pb, _ = rs[2].AppendPiggybackFor(1, nil) // m2
	rs[1].Merge(2, pb)
	rs[1].AddLocal(v)

	pb, _ = rs[1].AppendPiggybackFor(3, nil) // m3
	rs[3].Merge(1, pb)
	rs[3].AddLocal(w)

	pb, _ = rs[3].AppendPiggybackFor(2, nil) // m4
	return pb
}

func ids(ds []event.Determinant) map[event.EventID]bool {
	m := make(map[event.EventID]bool)
	for _, d := range ds {
		m[d.ID] = true
	}
	return m
}

func TestFig3VcausalSendsEverything(t *testing.T) {
	pb := fig3Scenario(t, "vcausal")
	got := ids(pb)
	// Vcausal has no direct-exchange history with P2: it must send u, v, w
	// (x is P2's own event and is never sent to its creator).
	for _, want := range []event.EventID{{Creator: 1, Clock: 1}, {Creator: 1, Clock: 2}, {Creator: 3, Clock: 1}} {
		if !got[want] {
			t.Errorf("vcausal piggyback to P2 missing %v (got %v)", want, pb)
		}
	}
	if got[event.EventID{Creator: 2, Clock: 1}] {
		t.Errorf("vcausal piggybacked P2's own event back to it")
	}
	if len(pb) != 3 {
		t.Errorf("vcausal piggyback = %v, want 3 events", pb)
	}
}

func TestFig3GraphProtocolsInferKnowledge(t *testing.T) {
	for _, name := range []string{"manetho", "logon"} {
		pb := fig3Scenario(t, name)
		got := ids(pb)
		// u is in the causal past of P2's event x, so the antecedence graph
		// proves P2 already knows it.
		if got[event.EventID{Creator: 1, Clock: 1}] {
			t.Errorf("%s piggybacked u, which P2 provably knows", name)
		}
		for _, want := range []event.EventID{{Creator: 1, Clock: 2}, {Creator: 3, Clock: 1}} {
			if !got[want] {
				t.Errorf("%s piggyback to P2 missing %v (got %v)", name, want, pb)
			}
		}
		if len(pb) != 2 {
			t.Errorf("%s piggyback = %v, want exactly {v, w}", name, pb)
		}
	}
}

func TestNoEventSentTwiceBetweenPair(t *testing.T) {
	for _, name := range Names() {
		r := New(name, 0, 3)
		r.AddLocal(event.Determinant{ID: event.EventID{Creator: 0, Clock: 1}, Sender: 1, SendSeq: 1})
		first, _ := r.AppendPiggybackFor(1, nil)
		if len(first) != 1 {
			t.Fatalf("%s: first piggyback = %v, want 1 event", name, first)
		}
		second, _ := r.AppendPiggybackFor(1, nil)
		if len(second) != 0 {
			t.Errorf("%s: event sent twice to the same destination: %v", name, second)
		}
		// A different destination must still receive it.
		other, _ := r.AppendPiggybackFor(2, nil)
		if len(other) != 1 {
			t.Errorf("%s: piggyback to fresh destination = %v, want 1 event", name, other)
		}
	}
}

func TestStableEventsAreGarbageCollected(t *testing.T) {
	for _, name := range Names() {
		r := New(name, 0, 3)
		for clk := uint64(1); clk <= 10; clk++ {
			r.AddLocal(event.Determinant{ID: event.EventID{Creator: 0, Clock: clk}, Sender: 1, SendSeq: clk})
		}
		if r.Held() != 10 {
			t.Fatalf("%s: held = %d, want 10", name, r.Held())
		}
		r.Stable(stableVec(7, 0, 0))
		if r.Held() != 3 {
			t.Errorf("%s: held = %d after Stable(7), want 3", name, r.Held())
		}
		pb, _ := r.AppendPiggybackFor(1, nil)
		if len(pb) != 3 {
			t.Errorf("%s: piggyback = %d events after Stable(7), want 3", name, len(pb))
		}
		for _, d := range pb {
			if d.ID.Clock <= 7 {
				t.Errorf("%s: stable event %v piggybacked", name, d.ID)
			}
		}
	}
}

func TestStableIsMonotonic(t *testing.T) {
	for _, name := range Names() {
		r := New(name, 0, 2)
		for clk := uint64(1); clk <= 5; clk++ {
			r.AddLocal(event.Determinant{ID: event.EventID{Creator: 0, Clock: clk}, Sender: 1, SendSeq: clk})
		}
		r.Stable(stableVec(4, 0))
		r.Stable(stableVec(2, 0)) // stale ack must not resurrect anything
		if r.Held() != 1 {
			t.Errorf("%s: held = %d after stale ack, want 1", name, r.Held())
		}
	}
}

func TestMergeDeduplicates(t *testing.T) {
	for _, name := range Names() {
		r := New(name, 0, 3)
		d := event.Determinant{ID: event.EventID{Creator: 1, Clock: 1}, Sender: 2, SendSeq: 1}
		r.Merge(1, []event.Determinant{d})
		r.Merge(2, []event.Determinant{d})
		if r.Held() != 1 {
			t.Errorf("%s: held = %d after duplicate merge, want 1", name, r.Held())
		}
	}
}

func TestHeldForAndAll(t *testing.T) {
	for _, name := range Names() {
		r := New(name, 0, 3)
		r.AddLocal(event.Determinant{ID: event.EventID{Creator: 0, Clock: 1}, Sender: 1, SendSeq: 1})
		r.Merge(1, []event.Determinant{
			{ID: event.EventID{Creator: 1, Clock: 1}, Sender: 2, SendSeq: 1},
			{ID: event.EventID{Creator: 1, Clock: 2}, Sender: 2, SendSeq: 2},
		})
		if got := r.HeldFor(1); len(got) != 2 || got[0].ID.Clock != 1 || got[1].ID.Clock != 2 {
			t.Errorf("%s: HeldFor(1) = %v", name, got)
		}
		if got := r.HeldFor(2); len(got) != 0 {
			t.Errorf("%s: HeldFor(2) = %v, want empty", name, got)
		}
		if got := r.All(); len(got) != 3 {
			t.Errorf("%s: All() = %d determinants, want 3", name, len(got))
		}
	}
}

func TestPiggybackBytesEncodings(t *testing.T) {
	ds := []event.Determinant{
		{ID: event.EventID{Creator: 1, Clock: 1}},
		{ID: event.EventID{Creator: 1, Clock: 2}},
	}
	v, m, l := NewVcausal(0, 2), NewManetho(0, 2), NewLogOn(0, 2)
	if v.PiggybackBytes(ds) != event.FactoredSize(ds) {
		t.Error("vcausal must use factored encoding")
	}
	if m.PiggybackBytes(ds) != event.FactoredSize(ds) {
		t.Error("manetho must use factored encoding")
	}
	if l.PiggybackBytes(ds) != event.FlatSize(ds) {
		t.Error("logon must use flat encoding")
	}
	if l.PiggybackBytes(ds) <= m.PiggybackBytes(ds) {
		t.Error("logon encoding must cost more bytes for factorable events")
	}
}

func TestOpsCostOrdering(t *testing.T) {
	// For one identical exchange, the cost model must reproduce the paper's
	// qualitative ordering: Vcausal cheapest at send; LogOn send ≥ Manetho
	// send (reorder); Manetho merge > LogOn merge > Vcausal merge.
	mkBatch := func(n int) []event.Determinant {
		ds := make([]event.Determinant, n)
		for i := range ds {
			ds[i] = event.Determinant{ID: event.EventID{Creator: 1, Clock: uint64(i + 1)}, Sender: 2, SendSeq: uint64(i + 1)}
		}
		return ds
	}
	batch := mkBatch(64)
	var mergeOps, sendOps [3]int64
	for i, name := range Names() {
		r := New(name, 0, 4)
		mergeOps[i] = r.Merge(1, batch)
		_, sendOps[i] = r.AppendPiggybackFor(2, nil)
	}
	vc, man, lg := 0, 1, 2
	if !(mergeOps[vc] <= mergeOps[lg] && mergeOps[lg] < mergeOps[man]) {
		t.Errorf("merge ops ordering violated: vcausal=%d logon=%d manetho=%d",
			mergeOps[vc], mergeOps[lg], mergeOps[man])
	}
	if !(sendOps[vc] < sendOps[man] && sendOps[man] < sendOps[lg]) {
		t.Errorf("send ops ordering violated: vcausal=%d manetho=%d logon=%d",
			sendOps[vc], sendOps[man], sendOps[lg])
	}
}

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int64{0: 0, 1: 1, 2: 2, 3: 2, 4: 3, 7: 3, 8: 4, 1023: 10}
	for n, want := range cases {
		if got := log2ceil(n); got != want {
			t.Errorf("log2ceil(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestUnknownReducerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown reducer")
		}
	}()
	New("bogus", 0, 2)
}

// stableVec builds a stable vector from a dense value list
// (test shorthand: index = creator, value = clock floor).
func stableVec(vals ...uint64) *sparsevec.Vec {
	v := sparsevec.New(len(vals))
	for c, f := range vals {
		v.SetMax(c, f)
	}
	return v
}
