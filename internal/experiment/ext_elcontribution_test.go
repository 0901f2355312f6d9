package experiment

import (
	"slices"
	"testing"

	"mpichv/internal/cluster"
	"mpichv/internal/event"
	"mpichv/internal/harness"
	"mpichv/internal/sim"
)

// TestELContributionRegressedRecoveryIsALoss reruns the one
// ext-elcontribution cell whose regressed recovery closes an antecedence
// cycle: bt.A.16x4 under Manetho without the Event Logger, storm trial 4.
// It narrows the full sweep to that cell, so the cell ID, the seed, the
// storm-4 → trial 3 plan, the checkpoint budget and the cap are the
// production ones. Rank 13 comes back from regressed state and re-creates
// its own determinant IDs; the cycle walk meets e(13,148) twice while rank
// 13 builds a piggyback. It must end as a determinant loss of the
// conflict form, detected before the send leaves, with the storm's
// concurrently dead peers.
func TestELContributionRegressedRecoveryIsALoss(t *testing.T) {
	f := extELCFull()
	f.Workloads = f.Workloads[1:]
	f.Stacks = stacksNamed("Manetho (no EL)")
	f.Variants = f.Variants[3:4]
	if f.Workloads[0].Key != "bt.A.16x4" || f.Variants[0].Key != "storm-4" {
		t.Fatalf("narrowed to %s %s, want bt.A.16x4 storm-4", f.Workloads[0].Key, f.Variants[0].Key)
	}
	res := f.run(harness.Options{}).faulted
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
