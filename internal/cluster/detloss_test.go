package cluster

import (
	"testing"

	"mpichv/internal/daemon"
	"mpichv/internal/event"
	"mpichv/internal/failure"
	"mpichv/internal/sim"
	"mpichv/internal/workload"
)

// elStudyPrograms is the shared minimal determinant-loss topology: rank 2
// feeds rank 0, rank 0's determinants travel only to rank 1, and killing
// 0 and 1 together destroys every copy (see workload.BuildWitnessPair).
func elStudyPrograms(iters int) []failure.Program {
	return workload.BuildWitnessPair(iters).Programs
}

func elStudyConfig(useEL bool) Config {
	return Config{
		NP: 3, Stack: StackVcausal, Reducer: "vcausal", UseEL: useEL,
		RestartDelay: 5 * sim.Millisecond,
	}
}

// TestConcurrentKillNoELLosesDeterminants: the paper's known limitation.
// Without an Event Logger, killing the victim together with the only
// witness of its determinants loses them for good; the run must record a
// first-class OutcomeDeterminantLoss with diagnostics — not panic, not
// deadlock to the cap.
func TestConcurrentKillNoELLosesDeterminants(t *testing.T) {
	c := New(elStudyConfig(false))
	d := c.PrepareRun(elStudyPrograms(40))
	d.ScheduleFault(8*sim.Millisecond, 0)
	d.ScheduleFault(8*sim.Millisecond, 1)
	d.Launch()
	res := c.RunLaunched(30 * sim.Minute)

	if res.Outcome != OutcomeDeterminantLoss {
		t.Fatalf("outcome = %q, want %q", res.Outcome, OutcomeDeterminantLoss)
	}
	dl := res.DetLoss
	if dl == nil {
		t.Fatal("no determinant-loss diagnostics recorded")
	}
	if dl.Victim != 0 {
		t.Errorf("victim = %d, want 0", dl.Victim)
	}
	if dl.Lost <= 0 || dl.MissingFrom == 0 || dl.MissingTo < dl.MissingFrom {
		t.Errorf("implausible loss range: %+v", dl)
	}
	if dl.Gap {
		t.Errorf("concurrent-kill loss should be a truncation, got gap: %+v", dl)
	}
	found := false
	for _, r := range dl.DeadPeers {
		if r == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("dead peers %v should include the concurrently killed witness (rank 1)", dl.DeadPeers)
	}
	if res.End >= 30*sim.Minute {
		t.Error("run should stop at detection, not at the virtual cap")
	}
}

// TestConcurrentKillWithELCompletes: the same storm with the Event Logger
// deployed recovers and completes — the EL's contribution, measured.
func TestConcurrentKillWithELCompletes(t *testing.T) {
	cfg := elStudyConfig(true)
	cfg.RecordDeliveries = true
	c := New(cfg)
	d := c.PrepareRun(elStudyPrograms(40))
	d.ScheduleFault(8*sim.Millisecond, 0)
	d.ScheduleFault(8*sim.Millisecond, 1)
	d.Launch()
	res := c.RunLaunched(30 * sim.Minute)
	if res.Outcome != OutcomeCompleted {
		t.Fatalf("outcome = %q (detloss=%v), want completed", res.Outcome, res.DetLoss)
	}
	if c.DetLoss != nil {
		t.Fatalf("EL-enabled run recorded a loss: %v", c.DetLoss)
	}
	foldDeliveries(t, "concurrent kill", c)
}

// TestSingleKillNoELIsNotLoss: with all witnesses alive, a lone failure
// recovers (possibly merging latent piggybacked determinants later) — the
// loss detector must not fire on the benign single-failure case.
func TestSingleKillNoELIsNotLoss(t *testing.T) {
	c := New(elStudyConfig(false))
	d := c.PrepareRun(elStudyPrograms(40))
	d.ScheduleFault(8*sim.Millisecond, 0)
	d.Launch()
	res := c.RunLaunched(30 * sim.Minute)
	if res.Outcome != OutcomeCompleted {
		t.Fatalf("outcome = %q (detloss=%v), want completed", res.Outcome, res.DetLoss)
	}
}

// gappedProto wraps a protocol and withholds one middle determinant of
// rank 0 from recovery service — the state of a peer whose volatile memory
// regressed past that determinant. It reproduces the pre-PR "recovery
// hole" panic scenario: the victim reassembles a replay set with a hole.
type gappedProto struct {
	daemon.Protocol
	dropClock uint64
}

func (g *gappedProto) HeldFor(creator event.Rank) []event.Determinant {
	ds := g.Protocol.HeldFor(creator)
	if creator != 0 {
		return ds
	}
	out := ds[:0]
	for _, d := range ds {
		if d.ID.Clock != g.dropClock {
			out = append(out, d)
		}
	}
	return out
}

// TestReplayGapIsDeterminantLossOutcome: a hole inside the collected
// replay set — which used to abort the whole cell with the "recovery hole"
// panic — is now recorded as OutcomeDeterminantLoss with Gap diagnostics.
func TestReplayGapIsDeterminantLossOutcome(t *testing.T) {
	c := New(elStudyConfig(false))
	// Rank 1, the sole witness, serves rank 0's recovery with clock 2
	// missing. The victim's reducer also re-merges its own determinants
	// from the witness, so the gap must also be hidden from the loss
	// detector's witness scan: drop it from rank 1's served set entirely.
	c.Nodes[1].Proto = &gappedProto{Protocol: c.Nodes[1].Proto, dropClock: 2}
	d := c.PrepareRun(elStudyPrograms(40))
	d.ScheduleFault(8*sim.Millisecond, 0)
	d.Launch()
	res := c.RunLaunched(30 * sim.Minute)

	if res.Outcome != OutcomeDeterminantLoss {
		t.Fatalf("outcome = %q, want %q", res.Outcome, OutcomeDeterminantLoss)
	}
	dl := res.DetLoss
	if dl == nil || !dl.Gap {
		t.Fatalf("expected gap-form loss diagnostics, got %+v", dl)
	}
	if dl.MissingFrom != 2 || dl.MissingTo != 2 || dl.Lost != 1 {
		t.Errorf("gap range = [%d,%d] lost %d, want exactly clock 2", dl.MissingFrom, dl.MissingTo, dl.Lost)
	}
}
