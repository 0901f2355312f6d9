package mpichv_test

import (
	"testing"

	"mpichv/internal/cluster"
	"mpichv/internal/harness"
	"mpichv/internal/workload"
)

// TestParksPerMessage is the switch census of Figure 7: over its 66 cells
// (BT, CG and LU class A at the figure's process counts, the three
// reducers with and without the Event Logger), how often a process parks
// — one coroutine switch there and one back — per application message,
// and how many Sleeps ended in place instead. The counts are
// deterministic, so they are pinned exactly: a change that adds or
// removes a park moves them and updates this test in the same diff. CI
// prints the census line in the test job's summary.
//
// The lane census beside it: the compute polls (sim.Proc.SleepPolled's
// lane ticks) that failed and re-armed, served one by one or skipped by
// the lane's fast-forward to the next heap event. It is pinned exactly
// too, and CI prints its line beside the parks line.
//
// The bound is the grid's, not a cell's: the Event Logger's acks cost
// every EL cell but LU.2 and LU.4 more than five parks per message
// (LU.A.16 with Vcausal: 5.57).
func TestParksPerMessage(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 66 cells of Figure 7 (~4 s)")
	}
	const (
		wantParks, wantInPlace, wantMsgs = 3941986, 1033923, 885480
		wantServed, wantSkipped          = 373092, 6212035
		maxParksPerMsg                   = 5.0
	)
	grid := []struct {
		bench string
		nps   []int
	}{{"bt", []int{4, 9, 16}}, {"cg", []int{2, 4, 8, 16}}, {"lu", []int{2, 4, 8, 16}}}
	var parks, inPlace, msgs, served, skipped int
	for _, g := range grid {
		for _, np := range g.nps {
			for _, el := range []bool{true, false} {
				for _, reducer := range []string{"vcausal", "manetho", "logon"} {
					in := workload.Build(workload.Spec{Bench: g.bench, Class: "A", NP: np})
					c := cluster.New(cluster.Config{NP: np, Stack: cluster.StackVcausal, Reducer: reducer, UseEL: el})
					c.Run(in.Programs, harness.DefaultMaxVirtual).MustCompleted()
					counts := c.K.Counts()
					parks += counts.Parks
					inPlace += counts.InPlaceSleeps
					served += counts.Rearmed - counts.Skipped
					skipped += counts.Skipped
					msgs += int(c.AggregateStats().AppMsgsSent)
					c.Close()
				}
			}
		}
	}
	perMsg := float64(parks) / float64(msgs)
	t.Logf("parks per application message: %.2f (%d parks, %d in-place sleeps, %d messages; Figure 7's 66 cells)",
		perMsg, parks, inPlace, msgs)
	if parks != wantParks || inPlace != wantInPlace || msgs != wantMsgs {
		t.Errorf("%d parks, %d in-place sleeps, %d messages; want %d, %d, %d", parks, inPlace, msgs, wantParks, wantInPlace, wantMsgs)
	}
	t.Logf("lane ticks re-armed: %d served one by one, %d skipped (Figure 7's 66 cells)", served, skipped)
	if served != wantServed || skipped != wantSkipped {
		t.Errorf("lane ticks re-armed: %d served one by one, %d skipped; want %d, %d", served, skipped, wantServed, wantSkipped)
	}
	if perMsg > maxParksPerMsg {
		t.Errorf("%.2f parks per application message, want at most %v", perMsg, maxParksPerMsg)
	}
}
