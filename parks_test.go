package mpichv_test

import (
	"testing"

	"mpichv/internal/cluster"
	"mpichv/internal/harness"
	"mpichv/internal/sim"
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
// every BT cell that uses it more than five parks per message (BT.A.16
// with Vcausal: 6.07), while its CG and LU cells stay under five (LU.A.16
// with Vcausal: 4.54).
func TestParksPerMessage(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 66 cells of Figure 7 (~4 s)")
	}
	const (
		wantParks, wantInPlace, wantMsgs = 3446205, 975716, 885480
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

// TestRecoveryParks is the switch census of Figure 10's crash grid: BT and
// LU class A and CG class B at the figure's process counts, Vcausal with
// and without the Event Logger, rank 0 killed at the midpoint of the
// cell's fault-free run, no checkpoints and a 100 ms restart. It counts
// the parks, in-place sleeps and application messages of the crashed
// runs, where survivors re-send their logged payloads, a path Figure 7's
// census never takes. The counts are pinned exactly, like the parks
// census beside it, and CI prints the census line beside that one.
func TestRecoveryParks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 24 cells of Figure 10 twice (~2 s)")
	}
	const wantParks, wantInPlace, wantMsgs = 1241027, 386645, 334240
	grid := []struct {
		bench, class string
		nps          []int
	}{{"bt", "A", []int{4, 9, 16, 25}}, {"cg", "B", []int{2, 4, 8, 16}}, {"lu", "A", []int{2, 4, 8, 16}}}
	var parks, inPlace, msgs int
	for _, g := range grid {
		for _, np := range g.nps {
			for _, el := range []bool{true, false} {
				spec := workload.Spec{Bench: g.bench, Class: g.class, NP: np}
				cfg := cluster.Config{NP: np, Stack: cluster.StackVcausal, Reducer: "vcausal", UseEL: el, RestartDelay: 100 * sim.Millisecond}
				free := cluster.New(cfg)
				mid := free.Run(workload.Build(spec).Programs, harness.DefaultMaxVirtual).MustCompleted() / 2
				free.Close()

				c := cluster.New(cfg)
				d := c.PrepareRun(workload.Build(spec).Programs)
				d.ScheduleFault(mid, 0)
				d.Launch()
				c.RunLaunched(harness.DefaultMaxVirtual).MustCompleted()
				counts := c.K.Counts()
				parks += counts.Parks
				inPlace += counts.InPlaceSleeps
				msgs += int(c.AggregateStats().AppMsgsSent)
				c.Close()
			}
		}
	}
	t.Logf("recovery parks: %d parks, %d in-place sleeps, %d messages (Figure 10's 24 crash cells)", parks, inPlace, msgs)
	if parks != wantParks || inPlace != wantInPlace || msgs != wantMsgs {
		t.Errorf("%d parks, %d in-place sleeps, %d messages; want %d, %d, %d", parks, inPlace, msgs, wantParks, wantInPlace, wantMsgs)
	}
}
