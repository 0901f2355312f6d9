package experiment

import (
	"slices"
	"testing"

	"mpichv/internal/cluster"
	"mpichv/internal/event"
	"mpichv/internal/harness"
	"mpichv/internal/sim"
	"mpichv/internal/workload"
)

// TestELContributionRegressedRecoveryIsALoss reruns the one
// ext-elcontribution cell whose regressed recovery closes an antecedence
// cycle: bt.A.16x4 under Manetho without the Event Logger, storm trial 4.
// The cell ID and seed are the full sweep's. Rank 13 comes back from
// regressed state and re-creates its own determinant IDs; the cycle walk
// meets e(13,148) twice while rank 13 builds a piggyback. It must end as a
// determinant loss of the conflict form, detected before the send leaves,
// with the storm's concurrently dead peers.
func TestELContributionRegressedRecoveryIsALoss(t *testing.T) {
	res := harness.Run(&harness.SweepSpec{
		Name: "ext-elcontribution",
		Workloads: []harness.Workload{{
			Key:           "bt.A.16x4",
			Spec:          workload.Spec{Bench: "bt", Class: "A", NP: 16, IterScale: 4},
			AppStateBytes: 1 << 20,
		}},
		Stacks:     []harness.Stack{causalStacks[4]},
		Variants:   []harness.Variant{{Key: "storm-4"}},
		BaseSeed:   2607,
		MaxVirtual: 100 * sim.Minute,
		Tune: func(c *harness.Cell) {
			ckptBudget(c)
			c.Config.Faults = extELCBurstStorm(16, 3)
		},
	}, harness.Options{})
	cr := res.Get("bt.A.16x4", "Manetho (no EL)", "storm-4")
	if cr == nil {
		t.Fatal("cell missing from the sweep")
	}
	if cr.Err != "" {
		t.Fatalf("cell erred: %s", cr.Err)
	}
	if cr.Outcome != cluster.OutcomeDeterminantLoss || cr.DetLoss == nil {
		t.Fatalf("outcome %q, want %q", cr.Outcome, cluster.OutcomeDeterminantLoss)
	}
	dl := *cr.DetLoss
	if !dl.Conflict || dl.Victim != 13 || dl.Detector != 13 || dl.Lost != 1 ||
		dl.MissingFrom != 148 || dl.MissingTo != 148 {
		t.Fatalf("loss %+v, want the conflict form at e(13,148) detected by rank 13", dl)
	}
	if want := []event.Rank{12, 14, 15}; !slices.Equal(dl.DeadPeers, want) {
		t.Fatalf("dead peers %v, want %v", dl.DeadPeers, want)
	}
	const at = sim.Time(18_676_417_680)
	if dl.At != at || cr.Elapsed != at {
		t.Fatalf("detected at %v (run ended %v), want %v", dl.At, cr.Elapsed, at)
	}
}
