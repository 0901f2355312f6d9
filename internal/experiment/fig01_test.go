package experiment

import (
	"testing"

	"mpichv/internal/harness"
	"mpichv/internal/sim"
)

func TestFig01CausalPointNotPathological(t *testing.T) {
	if testing.Short() {
		t.Skip("fault sweep is slow")
	}
	wl := fig01Workload()
	causalOnly := fig01Stacks[2:3] // causal

	baseSpec := fig01Spec("fig1-test-baseline", []harness.Variant{{Key: "fault-free"}}, nil)
	baseSpec.Stacks = causalOnly
	base := harness.Run(baseSpec, harness.Options{}).
		MustGet(wl.Key, causalOnly[0].Label, "fault-free").Elapsed
	if base <= 0 {
		t.Fatal("baseline failed")
	}

	for _, interval := range []sim.Time{20 * sim.Second, 12 * sim.Second, 8 * sim.Second} {
		spec := fig01Spec("fig1-test-faulted", []harness.Variant{{Key: "faulted", FaultEvery: interval}},
			func(c *harness.Cell) { c.MaxVirtual = base * divergenceFactor })
		spec.Stacks = causalOnly
		cr := harness.Run(spec, harness.Options{}).Get(wl.Key, causalOnly[0].Label, "faulted")
		if cr == nil || cr.Err != "" || !cr.Completed {
			t.Fatalf("causal diverged at interval %v", interval)
		}
		slow := float64(cr.Elapsed) / float64(base)
		if slow > 3.0 {
			t.Errorf("causal slowdown at interval %v = %.1fx (pathological)", interval, slow)
		}
	}
}
