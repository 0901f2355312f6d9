package obs

import (
	"math"
	"math/bits"

	"mpichv/internal/sim"
)

// latencyBuckets is the fixed bucket count of a LatencyHist: one bucket
// per power of two of virtual nanoseconds, which spans the full sim.Time
// range (bucket 0 holds exactly 0, bucket b holds [2^(b-1), 2^b-1]).
const latencyBuckets = 64

// LatencyHist is a fixed-bucket virtual-latency histogram: power-of-two
// nanosecond buckets, no dynamic allocation after construction, and
// deterministic quantiles (a quantile reports its bucket's upper bound, so
// identical observation multisets yield identical quantiles regardless of
// observation order, and a higher quantile can never report a smaller
// value than a lower one).
//
// Like the Recorder, a nil *LatencyHist is the disabled layer: Observe on
// a nil receiver is a single branch with zero allocations, so callers on
// warm paths record unconditionally.
type LatencyHist struct {
	counts [latencyBuckets]int64
	total  int64
}

// NewLatencyHist returns an enabled histogram. The struct is fixed-size;
// no further allocation ever occurs.
func NewLatencyHist() *LatencyHist { return &LatencyHist{} }

// Observe records one latency sample. Negative samples are clamped to
// zero (a replayed response consumed before its request's nominal arrival
// has no meaningful positive latency). On a nil receiver it is a no-op —
// the disabled-layer contract.
//
//mpichv:noalloc
func (h *LatencyHist) Observe(v sim.Time) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.counts[bits.Len64(uint64(v))]++
	h.total++
}

// Count returns the number of recorded samples (0 on a nil receiver).
//
//mpichv:noalloc
func (h *LatencyHist) Count() int64 {
	if h == nil {
		return 0
	}
	return h.total
}

// Quantile returns the q-quantile (0 < q <= 1) as the upper bound of the
// bucket holding the ceil(q*Count)-th smallest sample, in virtual
// nanoseconds. An empty (or nil) histogram reports 0. Because buckets are
// scanned smallest-first and q maps to a rank, Quantile is monotone in q:
// Quantile(0.99) >= Quantile(0.5) always holds.
//
//mpichv:noalloc
func (h *LatencyHist) Quantile(q float64) sim.Time {
	if h == nil || h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// The ceiling of q·total, shaved by a relative 1e-9 first: the float
	// product overshoots some exact integer ranks (0.07·100 is
	// 7.000000000000001), and those must stay exact.
	rank := int64(math.Ceil(q * float64(h.total) * (1 - 1e-9)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for b, n := range h.counts {
		seen += n
		if seen >= rank {
			return bucketUpper(b)
		}
	}
	return bucketUpper(latencyBuckets - 1)
}

// Max returns the upper bound of the highest occupied bucket (0 when
// empty): the deterministic worst-case latency estimate.
//
//mpichv:noalloc
func (h *LatencyHist) Max() sim.Time {
	if h == nil || h.total == 0 {
		return 0
	}
	for b := latencyBuckets - 1; b >= 0; b-- {
		if h.counts[b] > 0 {
			return bucketUpper(b)
		}
	}
	return 0
}

// bucketUpper is bucket b's inclusive upper bound: 0 for bucket 0,
// 2^b - 1 otherwise (saturating at the int64 maximum for the last bucket).
func bucketUpper(b int) sim.Time {
	if b <= 0 {
		return 0
	}
	if b >= 63 {
		return sim.Time(^uint64(0) >> 1)
	}
	return sim.Time(int64(1)<<b - 1)
}
