package experiment

import (
	"slices"
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
	f.Name, f.base = "fig1-test", ""
	f.Stacks = fig01Stacks[2:3] // causal
	f.Variants = nil
	for _, interval := range intervals {
		f.Variants = append(f.Variants, harness.Variant{Key: interval.String(), FaultEvery: interval})
	}
	run := f.run(harness.Options{})

	wl, label := fig01Workload().Key, f.Stacks[0].Label
	base := run.baseline(wl, label)
	if base <= 0 {
		t.Fatal("baseline failed")
	}
	for _, v := range f.Variants {
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
// baseline sweep carrying the spec's seed and probes, then the spec's own
// grid, tuned by its own Tune, with faulted cells capped at factor times
// their own (workload, stack) baseline, unless the workload carries a
// fixed cap.
func TestFaultedSweepCaps(t *testing.T) {
	witness := func(key string) harness.Workload {
		return harness.Workload{Key: key, Make: func() *workload.Instance { return workload.BuildWitnessPair(40) }}
	}
	const fixed = 30 * sim.Minute
	kill := &faultplan.Plan{Correlated: []faultplan.CorrelatedKill{{At: 8 * sim.Millisecond, Ranks: []int{0}}}}
	f := faultedSweep{
		SweepSpec: harness.SweepSpec{
			Name:      "caps",
			Workloads: []harness.Workload{witness("scaled"), witness("fixed")},
			Stacks:    []harness.Stack{causalStacks[0], causalStacks[3]}, // Vcausal with and without the EL
			Variants:  []harness.Variant{{Key: "kill", RestartDelay: 3 * sim.Millisecond}},
			BaseSeed:  11,
			Probes:    []string{harness.ProbeKills},
			Tune:      func(c *harness.Cell) { c.Config.Faults = kill },
		},
		factor: 5,
		caps:   map[string]sim.Time{"fixed": fixed},
	}

	cells := make(map[string]harness.Cell) // sweep name + cell ID -> the cell as run
	run := f.run(harness.Options{OnProgress: func(p harness.Progress) {
		cells[p.Sweep+" "+p.Cell.ID] = *p.Cell
	}})

	if run.base.Name != "caps-baseline" || run.faulted.Name != "caps" {
		t.Fatalf("sweep names %q, %q; want caps-baseline, caps", run.base.Name, run.faulted.Name)
	}
	if n := len(run.base.Cells); n != len(f.Workloads)*len(f.Stacks) {
		t.Fatalf("baseline has %d cells, want one per (workload, stack)", n)
	}
	if len(cells) != len(run.base.Cells)+len(run.faulted.Cells) {
		t.Fatalf("observed %d cells, want %d", len(cells), len(run.base.Cells)+len(run.faulted.Cells))
	}
	for _, cr := range run.base.Cells {
		c := cells[run.base.Name+" "+cr.ID]
		if cr.Variant != "fault-free" || !cr.Completed || c.Config.Faults != nil {
			t.Errorf("baseline cell %s: variant %q completed %v faults %v", cr.ID, cr.Variant, cr.Completed, c.Config.Faults)
		}
		if cr.Seed != sim.DeriveSeed(f.BaseSeed, cr.ID) || !slices.Equal(c.Probes, f.Probes) {
			t.Errorf("baseline cell %s: seed %d probes %v; want the spec's seed and probes", cr.ID, cr.Seed, c.Probes)
		}
	}
	for _, cr := range run.faulted.Cells {
		c := cells[run.faulted.Name+" "+cr.ID]
		if c.Config.Faults != kill || cr.Probes[harness.ProbeKills] != 1 {
			t.Errorf("%s: plan %v, %v kills; want the spec's Tune to install one kill", cr.ID, c.Config.Faults, cr.Probes[harness.ProbeKills])
		}
		want := fixed
		if cr.Workload == "scaled" {
			want = 5 * run.base.MustGet(cr.Workload, cr.Stack, "fault-free").Elapsed
		}
		if got := c.MaxVirtual; got != want || want <= 0 {
			t.Errorf("%s: MaxVirtual %v, want %v", cr.ID, got, want)
		}
	}
}
