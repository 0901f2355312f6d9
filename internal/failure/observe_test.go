package failure

import (
	"testing"

	"mpichv/internal/daemon"
	"mpichv/internal/obs"
	"mpichv/internal/sim"
)

// observeScenario runs one fixed overlapping-fault scenario — kills on
// ranks 0 and 1 at the same instant, a false suspicion on rank 2 while
// both are still down — and returns the full lifecycle event stream.
func observeScenario(t *testing.T) []obs.Event {
	t.Helper()
	k, nodes := suspectWorld(t, 3)
	progs := []Program{
		func(n *daemon.Node) { n.Compute(80 * sim.Millisecond) },
		func(n *daemon.Node) { n.Compute(80 * sim.Millisecond) },
		func(n *daemon.Node) { n.Compute(80 * sim.Millisecond) },
	}
	d := NewDispatcher(k, nodes, progs)
	d.RestartDelay = 10 * sim.Millisecond

	var events []obs.Event
	d.Observe(func(ev obs.Event) { events = append(events, ev) })
	d.Launch()
	d.ScheduleFault(20*sim.Millisecond, 0)
	d.ScheduleFault(20*sim.Millisecond, 1)
	k.At(25*sim.Millisecond, func() { d.Suspect(2) })
	k.Run()
	if !d.AllDone() {
		t.Fatal("scenario did not complete")
	}
	return events
}

// TestObserveDeterministicOrder: the lifecycle stream of overlapping
// kill/suspect/restart activity is a deterministic function of the run —
// two executions of the same scenario produce identical streams, ordered
// by virtual time.
func TestObserveDeterministicOrder(t *testing.T) {
	a := observeScenario(t)
	b := observeScenario(t)
	if len(a) == 0 {
		t.Fatal("no events observed")
	}
	if len(a) != len(b) {
		t.Fatalf("stream lengths differ: %d vs %d", len(a), len(b))
	}
	last := sim.Time(0)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].T < last {
			t.Fatalf("event %d out of order: %v after %v", i, a[i].T, last)
		}
		last = a[i].T
	}

	// The multiset is the full fault story: two kills, two repairs, one
	// fenced false suspicion, three completions.
	counts := map[obs.Kind]int{}
	for _, ev := range a {
		counts[ev.Kind]++
	}
	want := map[obs.Kind]int{
		obs.KindKill:      2,
		obs.KindSuspect:   1,
		obs.KindFenced:    1,
		obs.KindRestart:   3,
		obs.KindRecovered: 3,
		obs.KindFinished:  3,
	}
	for kind, n := range want {
		if counts[kind] != n {
			t.Errorf("%v count = %d, want %d (stream: %v)", kind, counts[kind], n, counts)
		}
	}

	// Per-rank kill/restart/recovered are causally ordered.
	seen := map[int][]obs.Kind{}
	for _, ev := range a {
		seen[ev.Rank] = append(seen[ev.Rank], ev.Kind)
	}
	idx := func(kinds []obs.Kind, k obs.Kind) int {
		for i, kk := range kinds {
			if kk == k {
				return i
			}
		}
		return -1
	}
	for r := 0; r < 2; r++ {
		ks := seen[r]
		if !(idx(ks, obs.KindKill) < idx(ks, obs.KindRestart) && idx(ks, obs.KindRestart) < idx(ks, obs.KindRecovered)) {
			t.Errorf("rank %d lifecycle out of order: %v", r, ks)
		}
	}
	if ks := seen[2]; !(idx(ks, obs.KindSuspect) < idx(ks, obs.KindFenced) && idx(ks, obs.KindFenced) < idx(ks, obs.KindRestart)) {
		t.Errorf("rank 2 suspicion out of order: %v", ks)
	}
}

// TestObserveLateRegistration: an observer registered mid-run — after a
// kill already fired — receives every subsequent event, including the
// suspect and fenced events of a false suspicion raised after
// registration.
func TestObserveLateRegistration(t *testing.T) {
	k, nodes := suspectWorld(t, 2)
	progs := []Program{
		func(n *daemon.Node) { n.Compute(60 * sim.Millisecond) },
		func(n *daemon.Node) { n.Compute(60 * sim.Millisecond) },
	}
	d := NewDispatcher(k, nodes, progs)
	d.RestartDelay = 10 * sim.Millisecond

	var early, late []obs.Kind
	d.Observe(func(ev obs.Event) { early = append(early, ev.Kind) })
	d.Launch()
	d.ScheduleFault(5*sim.Millisecond, 0)
	k.At(20*sim.Millisecond, func() {
		d.Observe(func(ev obs.Event) { late = append(late, ev.Kind) })
	})
	k.At(25*sim.Millisecond, func() { d.Suspect(1) })
	k.Run()
	if !d.AllDone() {
		t.Fatal("run did not complete")
	}

	has := func(kinds []obs.Kind, k obs.Kind) bool {
		for _, kk := range kinds {
			if kk == k {
				return true
			}
		}
		return false
	}
	// The late observer missed the kill (before registration) but sees
	// the suspicion, the fence and the completions.
	if has(late, obs.KindKill) {
		t.Fatalf("late observer saw the pre-registration kill: %v", late)
	}
	for _, kind := range []obs.Kind{obs.KindSuspect, obs.KindFenced, obs.KindRestart, obs.KindRecovered, obs.KindFinished} {
		if !has(late, kind) {
			t.Errorf("late observer missed %v: %v", kind, late)
		}
	}
	// The early observer saw the pre-registration kill/restart/recovered
	// of rank 0, then exactly the late observer's stream as a suffix.
	if !has(early, obs.KindKill) || len(early) <= len(late) {
		t.Fatalf("early observer stream unexpected: early=%v late=%v", early, late)
	}
	suffix := early[len(early)-len(late):]
	for i := range late {
		if suffix[i] != late[i] {
			t.Fatalf("streams disagree after registration: early suffix=%v late=%v", suffix, late)
		}
	}
}
