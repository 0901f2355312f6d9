package experiment

import (
	"testing"

	"mpichv/internal/faultplan"
	"mpichv/internal/harness"
	"mpichv/internal/sim"
	"mpichv/internal/workload"
)

func TestFig01CausalPointNotPathological(t *testing.T) {
	if testing.Short() {
		t.Skip("fault sweep is slow")
	}
	intervals := []sim.Time{20 * sim.Second, 12 * sim.Second, 8 * sim.Second}
	f := fig01Sweep()
	f.name, f.faulted = "fig1-test", ""
	f.stacks = fig01Stacks[2:3] // causal
	f.variants = nil
	for _, interval := range intervals {
		f.variants = append(f.variants, harness.Variant{Key: interval.String(), FaultEvery: interval})
	}
	run := f.run(harness.Options{})

	wl, label := fig01Workload().Key, f.stacks[0].Label
	base := run.baseline[wl+"|"+label]
	if base <= 0 {
		t.Fatal("baseline failed")
	}
	for _, v := range f.variants {
		cr := run.faulted.Get(wl, label, v.Key)
		if cr == nil || cr.Err != "" || !cr.Completed {
			t.Fatalf("causal diverged at interval %v", v.FaultEvery)
		}
		slow := float64(cr.Elapsed) / float64(base)
		if slow > 3.0 {
			t.Errorf("causal slowdown at interval %v = %.1fx (pathological)", v.FaultEvery, slow)
		}
	}
}

// TestFaultedSweepCaps pins the shared two-phase runner: one fault-free
// baseline sweep, then faulted cells capped at factor times their own
// (workload, stack) baseline, unless the workload carries a fixed cap.
func TestFaultedSweepCaps(t *testing.T) {
	witness := func(key string) harness.Workload {
		return harness.Workload{Key: key, Make: func() *workload.Instance { return workload.BuildWitnessPair(40) }}
	}
	const fixed = 30 * sim.Minute
	f := faultedSweep{
		name:      "caps",
		workloads: []harness.Workload{witness("scaled"), witness("fixed")},
		stacks:    []harness.Stack{causalStacks[0], causalStacks[3]}, // Vcausal with and without the EL
		variants:  []harness.Variant{{Key: "kill", RestartDelay: 3 * sim.Millisecond}},
		planFor: func(harness.Workload, int, int) *faultplan.Plan {
			return &faultplan.Plan{Correlated: []faultplan.CorrelatedKill{{At: 8 * sim.Millisecond, Ranks: []int{0}}}}
		},
		factor: 5,
		caps:   map[string]sim.Time{"fixed": fixed},
	}

	caps := make(map[string]sim.Time) // faulted cell ID -> MaxVirtual
	run := f.run(harness.Options{OnProgress: func(p harness.Progress) {
		if p.Sweep == "caps" {
			caps[p.Cell.ID] = p.Cell.MaxVirtual
		}
	}})

	if run.base.Name != "caps-baseline" || run.faulted.Name != "caps" {
		t.Fatalf("sweep names %q, %q; want caps-baseline, caps", run.base.Name, run.faulted.Name)
	}
	if n := len(run.base.Cells); n != len(f.workloads)*len(f.stacks) {
		t.Fatalf("baseline has %d cells, want one per (workload, stack)", n)
	}
	for _, cr := range run.base.Cells {
		if cr.Variant != "fault-free" || !cr.Completed {
			t.Errorf("baseline cell %s: variant %q completed %v", cr.ID, cr.Variant, cr.Completed)
		}
	}
	if len(caps) != len(run.faulted.Cells) {
		t.Fatalf("observed %d faulted cells, want %d", len(caps), len(run.faulted.Cells))
	}
	for _, cr := range run.faulted.Cells {
		want := fixed
		if cr.Workload == "scaled" {
			want = 5 * run.base.MustGet(cr.Workload, cr.Stack, "fault-free").Elapsed
		}
		if got := caps[cr.ID]; got != want || want <= 0 {
			t.Errorf("%s: MaxVirtual %v, want %v", cr.ID, got, want)
		}
	}
}
