package obs

import (
	"testing"

	"mpichv/internal/sim"
)

func TestLatencyHistQuantiles(t *testing.T) {
	h := NewLatencyHist()
	// 90 fast samples (~1ms), 10 slow (~1s): p50 must sit in the fast
	// bucket, p99 in the slow one.
	for i := 0; i < 90; i++ {
		h.Observe(sim.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(sim.Second)
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d, want 100", h.Count())
	}
	p50, p99 := h.Quantile(0.50), h.Quantile(0.99)
	if p50 < sim.Millisecond || p50 >= 2*sim.Millisecond {
		t.Errorf("p50 = %v, want ~1ms bucket upper bound", p50)
	}
	if p99 < sim.Second || p99 >= 2*sim.Second {
		t.Errorf("p99 = %v, want ~1s bucket upper bound", p99)
	}
	if p99 < p50 {
		t.Errorf("p99 (%v) < p50 (%v): quantiles must be monotone", p99, p50)
	}
	if h.Max() < p99 {
		t.Errorf("Max (%v) < p99 (%v)", h.Max(), p99)
	}
}

// TestLatencyHistQuantileCeilRank pins the ceil(q·Count)-th sample rule.
// With ten samples the p99 rank is ceil(9.9) = 10, the one slow request;
// rounding the rank down would report the fast bucket. Exact integer
// ranks stay exact: 0.99·100 is rank 99, and 0.07·100 (7.000000000000001
// in floating point) is rank 7.
func TestLatencyHistQuantileCeilRank(t *testing.T) {
	// fastThenSlow holds fast 1 ms samples followed by 1 s ones.
	fastThenSlow := func(fast, total int) *LatencyHist {
		h := NewLatencyHist()
		for i := 0; i < total; i++ {
			if i < fast {
				h.Observe(sim.Millisecond)
			} else {
				h.Observe(sim.Second)
			}
		}
		return h
	}
	if p99 := fastThenSlow(9, 10).Quantile(0.99); p99 < sim.Second {
		t.Errorf("10 samples: p99 = %v, want the 1 s sample's bucket", p99)
	}
	if p99 := fastThenSlow(99, 100).Quantile(0.99); p99 >= sim.Second {
		t.Errorf("100 samples: p99 = %v, want the 99th sample's 1 ms bucket", p99)
	}
	if q := fastThenSlow(7, 100).Quantile(0.07); q >= sim.Second {
		t.Errorf("100 samples: Quantile(0.07) = %v, want the 7th sample's 1 ms bucket", q)
	}
}

func TestLatencyHistQuantileMonotone(t *testing.T) {
	h := NewLatencyHist()
	for v := sim.Time(1); v < sim.Second; v *= 3 {
		h.Observe(v)
	}
	prev := sim.Time(-1)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("Quantile(%v) = %v < previous %v", q, v, prev)
		}
		prev = v
	}
}

func TestLatencyHistEdgeCases(t *testing.T) {
	h := NewLatencyHist()
	if h.Quantile(0.5) != 0 || h.Count() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Observe(-5) // clamped to 0
	h.Observe(0)
	if h.Count() != 2 {
		t.Fatalf("Count = %d, want 2", h.Count())
	}
	if h.Quantile(1) != 0 {
		t.Fatalf("all-zero samples: Quantile(1) = %v, want 0", h.Quantile(1))
	}
}

// TestLatencyHistNilDisabled pins the disabled-path contract: every method
// on a nil histogram is safe and Observe allocates nothing.
func TestLatencyHistNilDisabled(t *testing.T) {
	var h *LatencyHist
	if n := testing.AllocsPerRun(100, func() { h.Observe(sim.Millisecond) }); n != 0 {
		t.Fatalf("nil Observe allocates %v per call, want 0", n)
	}
	if h.Count() != 0 || h.Quantile(0.99) != 0 || h.Max() != 0 {
		t.Fatal("nil histogram must report zeros")
	}
}
