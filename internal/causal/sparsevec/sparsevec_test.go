package sparsevec

import (
	"math/rand"
	"slices"
	"testing"
)

func TestSetMaxGet(t *testing.T) {
	v := New(16)
	if v.Get(3) != 0 {
		t.Fatal("empty vector has a floor")
	}
	v.SetMax(3, 7)
	v.SetMax(3, 5) // lower: ignored
	v.SetMax(9, 1)
	v.SetMax(0, 4)
	if v.Get(3) != 7 || v.Get(9) != 1 || v.Get(0) != 4 || v.Get(8) != 0 {
		t.Fatalf("floors wrong: %v", v.Dense())
	}
	v.SetMax(3, 9)
	if v.Get(3) != 9 {
		t.Fatal("SetMax did not raise the floor")
	}
	if v.Active() != 3 {
		t.Fatalf("Active = %d, want 3", v.Active())
	}
}

func TestZeroFloorIsNoOp(t *testing.T) {
	v := New(8)
	v.SetMax(2, 0)
	if v.Active() != 0 {
		t.Fatal("zero floor created a run")
	}
}

// TestZeroValue pins the contract a nil checkpoint image relies on: a Vec
// never bound to a world reads as all zeros without allocating, and Reset
// makes it writable.
func TestZeroValue(t *testing.T) {
	var v Vec
	var got uint64
	allocs := testing.AllocsPerRun(10, func() {
		got = v.Get(0) | v.Get(3) | v.Get(1<<20)
	})
	if got != 0 || allocs != 0 {
		t.Fatalf("zero Vec reads %d with %.0f allocs, want 0 and 0", got, allocs)
	}
	if v.Active() != 0 || v.EncodedBytes() != RunHeaderBytes {
		t.Fatalf("zero Vec: Active = %d, EncodedBytes = %d", v.Active(), v.EncodedBytes())
	}
	v.Range(func(c int, f uint64) bool {
		t.Fatalf("Range visited (%d, %d) on a zero Vec", c, f)
		return false
	})
	v.Reset(8)
	v.SetMax(5, 3)
	if v.Get(5) != 3 || v.Get(4) != 0 || v.Active() != 1 {
		t.Fatalf("after Reset+SetMax: %v", v.Dense())
	}
}

func TestRangeOrderAndEarlyStop(t *testing.T) {
	v := New(32)
	for _, c := range []int{7, 2, 19, 4} {
		v.SetMax(c, uint64(c)*10)
	}
	var got []int
	v.Range(func(c int, f uint64) bool {
		if f != uint64(c)*10 {
			t.Fatalf("floor of %d is %d", c, f)
		}
		got = append(got, c)
		return true
	})
	if !slices.Equal(got, []int{2, 4, 7, 19}) {
		t.Fatalf("visited %v, want [2 4 7 19]", got)
	}
	n := 0
	v.Range(func(int, uint64) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("early stop visited %d", n)
	}
}

// TestMaxFromMatchesBruteForce drives random merges and checks them against
// a plain-array ground truth.
func TestMaxFromMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		const np = 24
		truth := make([]uint64, np)
		a, b := New(np), New(np)
		for i := 0; i < 12; i++ {
			c, f := r.Intn(np), uint64(r.Intn(40))
			a.SetMax(c, f)
			if f > truth[c] {
				truth[c] = f
			}
		}
		for i := 0; i < 12; i++ {
			c, f := r.Intn(np), uint64(r.Intn(40))
			b.SetMax(c, f)
			if f > truth[c] {
				truth[c] = f
			}
		}
		a.MaxFrom(b)
		for c := 0; c < np; c++ {
			if a.Get(c) != truth[c] {
				t.Fatalf("trial %d: merged[%d] = %d, want %d", trial, c, a.Get(c), truth[c])
			}
		}
	}
}

func TestResetReusesBuffers(t *testing.T) {
	v := New(8)
	for c := 0; c < 8; c++ {
		v.SetMax(c, 1)
	}
	v.Reset(8)
	if v.Active() != 0 || v.Get(3) != 0 {
		t.Fatal("Reset did not clear")
	}
	// The first write after Reset reuses the old array: no stale floor may
	// survive into it.
	v.SetMax(0, 5)
	if v.Active() != 1 || v.Get(3) != 0 {
		t.Fatalf("stale floors after Reset+SetMax: %v", v.Dense())
	}
	// The floor array survives Reset, so a pooled vector refills without
	// allocating.
	n := testing.AllocsPerRun(100, func() {
		v.Reset(8)
		for c := 0; c < 8; c++ {
			v.SetMax(c, uint64(c+1))
		}
	})
	if n != 0 {
		t.Fatalf("Reset+refill allocates %.1f per run", n)
	}
}

func TestEncodedBytes(t *testing.T) {
	v := New(1024)
	if v.EncodedBytes() != RunHeaderBytes {
		t.Fatalf("empty EncodedBytes = %d", v.EncodedBytes())
	}
	v.SetMax(3, 1)
	v.SetMax(900, 5)
	if got := v.EncodedBytes(); got != RunHeaderBytes+2*RunBytes {
		t.Fatalf("EncodedBytes = %d, want %d", got, RunHeaderBytes+2*RunBytes)
	}
}

func TestFillDenseAndClone(t *testing.T) {
	v := New(10)
	v.SetMax(2, 5)
	v.SetMax(7, 1)
	buf := make([]uint64, 10)
	buf[0] = 99 // must be cleared
	v.FillDense(buf)
	if buf[0] != 0 || buf[2] != 5 || buf[7] != 1 {
		t.Fatalf("FillDense = %v", buf)
	}
	c := v.Clone()
	v.SetMax(2, 50)
	if c.Get(2) != 5 {
		t.Fatal("clone aliases the original")
	}
}
