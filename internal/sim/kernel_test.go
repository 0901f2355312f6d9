package sim

import (
	"math/rand"
	"slices"
	"testing"
)

func TestEventOrdering(t *testing.T) {
	k := NewKernel(1)
	var order []int
	k.At(30, func() { order = append(order, 3) })
	k.At(10, func() { order = append(order, 1) })
	k.At(20, func() { order = append(order, 2) })
	end := k.Run()
	if end != 30 {
		t.Fatalf("final time = %v, want 30", end)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	k := NewKernel(1)
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		k.At(5, func() { order = append(order, i) })
	}
	k.Run()
	for i := 0; i < 100; i++ {
		if order[i] != i {
			t.Fatalf("events at the same instant ran out of scheduling order: got %d at position %d", order[i], i)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	k := NewKernel(1)
	k.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(50, func() {})
	})
	k.Run()
}

func TestAfterAccumulates(t *testing.T) {
	k := NewKernel(1)
	var hits []Time
	k.After(10, func() {
		hits = append(hits, k.Now())
		k.After(15, func() { hits = append(hits, k.Now()) })
	})
	k.Run()
	if len(hits) != 2 || hits[0] != 10 || hits[1] != 25 {
		t.Fatalf("hits = %v, want [10 25]", hits)
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel(1)
	ran := 0
	k.At(10, func() { ran++ })
	k.At(20, func() { ran++ })
	k.At(30, func() { ran++ })
	end := k.RunUntil(20)
	if ran != 2 {
		t.Fatalf("ran %d events before deadline, want 2", ran)
	}
	if end != 20 {
		t.Fatalf("RunUntil returned %v, want 20", end)
	}
	k.Run()
	if ran != 3 {
		t.Fatalf("ran %d events total, want 3", ran)
	}
}

// TestRunUntilNeverRewinds: a deadline the run has already passed runs
// nothing and leaves the clock where it is, so a time before it stays in
// the past.
func TestRunUntilNeverRewinds(t *testing.T) {
	k := NewKernel(1)
	k.At(100, func() {})
	if end := k.RunUntil(50); end != 50 {
		t.Fatalf("RunUntil(50) = %v, want 50", end)
	}
	if end := k.RunUntil(20); end != 50 || k.Now() != 50 {
		t.Fatalf("RunUntil(20) after RunUntil(50) = %v with now %v, want 50 and 50", end, k.Now())
	}
	defer func() {
		if recover() == nil {
			t.Error("At(30) after the clock reached 50 did not panic")
		}
	}()
	k.At(30, func() {})
}

func TestStop(t *testing.T) {
	k := NewKernel(1)
	ran := 0
	k.At(10, func() { ran++; k.Stop() })
	k.At(20, func() { ran++ })
	k.Run()
	if ran != 1 {
		t.Fatalf("ran %d events, want 1 (Stop should halt the loop)", ran)
	}
	if !k.Stopped() {
		t.Fatal("Stopped() = false after Stop")
	}
}

// TestBackgroundDoesNotKeepRunAlive: RunUntil stops once only Background
// events remain, with the clock at the last real event, and reports the
// queue drained; a real event still pending past the deadline does not.
func TestBackgroundDoesNotKeepRunAlive(t *testing.T) {
	k := NewKernel(1)
	var ticks []Time
	var tick func()
	tick = func() {
		ticks = append(ticks, k.Now())
		k.Background(k.Now()+10, tick)
	}
	k.Background(0, tick)
	k.At(25, func() {})
	if end := k.RunUntil(1000); end != 25 {
		t.Fatalf("RunUntil returned %v, want the last real event at 25", end)
	}
	if want := []Time{0, 10, 20}; !slices.Equal(ticks, want) {
		t.Fatalf("background ticks at %v, want %v", ticks, want)
	}
	if !k.Drained() {
		t.Fatal("Drained() = false with only a background event pending")
	}
	k.At(2000, func() {})
	if end := k.RunUntil(1500); end != 1500 || k.Drained() {
		t.Fatalf("RunUntil = %v, Drained = %v with a real event past the deadline; want 1500, false", end, k.Drained())
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []Time {
		k := NewKernel(42)
		var stamps []Time
		for i := 0; i < 5; i++ {
			k.Spawn("worker", func(p *Proc) {
				for j := 0; j < 10; j++ {
					d := Time(k.Rand().Intn(1000) + 1)
					p.Sleep(d)
					stamps = append(stamps, k.Now())
				}
			})
		}
		k.Run()
		return stamps
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != 50 {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestRandSeededOnFirstUse: the kernel builds its random source lazily, so
// the draws must not depend on when Rand is first called — before any
// event runs or after a run — and must be the seed's plain math/rand
// stream.
func TestRandSeededOnFirstUse(t *testing.T) {
	const seed, n = 7, 16
	draws := func(k *Kernel) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = k.Rand().Int63()
		}
		return out
	}
	early := NewKernel(seed)
	first := early.Rand().Int63()
	early.At(5, func() {})
	early.Run()
	late := NewKernel(seed)
	late.At(5, func() {})
	late.Run()
	want := rand.New(rand.NewSource(seed))
	a, b := append([]int64{first}, draws(early)...), draws(late)
	for i := range b {
		if w := want.Int63(); a[i] != w || b[i] != w {
			t.Fatalf("draw %d: first-called-before-run %d, after-run %d, want %d", i, a[i], b[i], w)
		}
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.5µs"},
		{2 * Millisecond, "2ms"},
		{3 * Second, "3s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestDeriveSeedStable(t *testing.T) {
	a := DeriveSeed(7, "x|y|z")
	if a != DeriveSeed(7, "x|y|z") {
		t.Error("DeriveSeed not stable")
	}
	if a == DeriveSeed(8, "x|y|z") || a == DeriveSeed(7, "x|y|w") {
		t.Error("DeriveSeed ignores an input")
	}
	if a <= 0 {
		t.Errorf("DeriveSeed returned %d, want positive", a)
	}
	// Every seed stream of every committed result hangs off these bytes.
	if a != 3046723968519809295 {
		t.Errorf("DeriveSeed(7, %q) = %d, want 3046723968519809295", "x|y|z", a)
	}
}
