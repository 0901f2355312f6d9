package faultplan_test

import (
	"slices"
	"testing"

	"mpichv/internal/cluster"
	"mpichv/internal/faultplan"
	"mpichv/internal/netmodel"
	"mpichv/internal/obs"
	"mpichv/internal/sim"
)

func TestValidateRejectsBadFabricOps(t *testing.T) {
	bad := []faultplan.Plan{
		// Partitions.
		{Partitions: []faultplan.Partition{{Groups: [][]int{{0, 1, 2, 3}}}}},
		{Partitions: []faultplan.Partition{{Groups: [][]int{{0}, {}}}}},
		{Partitions: []faultplan.Partition{{Groups: [][]int{{0}, {0, 1}}}}},
		{Partitions: []faultplan.Partition{{Groups: [][]int{{0}, {9}}}}},
		{Partitions: []faultplan.Partition{{At: -1, Groups: [][]int{{0}, {1}}}}},
		// Detector timeout at or past the heal: it could never fire.
		{Partitions: []faultplan.Partition{{
			Groups: [][]int{{0}, {1}}, Duration: sim.Second, SuspectAfter: sim.Second,
		}}},
		// Degrades.
		{Degrades: []faultplan.DegradeLink{{From: 0, To: 0}}},
		{Degrades: []faultplan.DegradeLink{{From: 0, To: 9}}},
		{Degrades: []faultplan.DegradeLink{{From: 0, To: 1, LatencyFactor: 0.5}}},
		{Degrades: []faultplan.DegradeLink{{From: 0, To: 1, BandwidthFactor: 2}}},
		{Degrades: []faultplan.DegradeLink{{From: 0, To: 1, Jitter: -1}}},
		// Overlapping windows: the second cut lands while the first holds
		// (and, in the second row, on the instant the first heals).
		{Partitions: []faultplan.Partition{
			{At: sim.Second, Groups: [][]int{{0}, {1}}, Duration: sim.Second},
			{At: 3 * sim.Second / 2, Groups: [][]int{{2}, {3}}, Duration: sim.Second},
		}},
		{Partitions: []faultplan.Partition{
			{At: 2 * sim.Second, Groups: [][]int{{2}, {3}}, Duration: sim.Second},
			{At: sim.Second, Groups: [][]int{{0}, {1}}, Duration: sim.Second},
		}},
		// Restart-delay distributions: a set one needs 0 < Min <= Max.
		{RestartDelay: faultplan.DelayDist{Min: 0, Max: sim.Second}},
		{RestartDelay: faultplan.DelayDist{Min: sim.Second, Max: sim.Millisecond}},
	}
	mustReject(t, bad)
	good := faultplan.Plan{
		Partitions: []faultplan.Partition{{
			Groups: [][]int{{0}, {1, 2, 3}}, Duration: sim.Second,
			SuspectAfter: 100 * sim.Millisecond,
		}},
		Degrades: []faultplan.DegradeLink{{From: 0, To: 1, Both: true,
			LatencyFactor: 2, BandwidthFactor: 0.5, Jitter: sim.Microsecond}},
		RestartDelay: faultplan.DelayDist{Min: sim.Millisecond, Max: sim.Second},
	}
	if err := good.Validate(4); err != nil {
		t.Fatalf("good fabric plan rejected: %v", err)
	}
}

// TestPartitionBlackoutStallsAndHeals: a transient partition with no
// detector timeout suspends the ring without any kill; held deliveries are
// released on heal and the run completes.
func TestPartitionBlackoutStallsAndHeals(t *testing.T) {
	plan := &faultplan.Plan{
		Partitions: []faultplan.Partition{{
			At:       5 * sim.Millisecond,
			Groups:   [][]int{{0}, {1, 2, 3}},
			Duration: 3 * sim.Millisecond,
		}},
	}
	c := runPlan(t, faultedConfig(plan, 11), 40)
	if c.Dispatcher.Kills != 0 || c.Dispatcher.Suspicions != 0 {
		t.Fatalf("blackout injected kills=%d suspicions=%d, want 0/0",
			c.Dispatcher.Kills, c.Dispatcher.Suspicions)
	}
	if c.Faults.PartitionsApplied != 1 {
		t.Fatalf("PartitionsApplied=%d, want 1", c.Faults.PartitionsApplied)
	}
	if c.Faults.BlackoutSpan != 3*sim.Millisecond {
		t.Fatalf("BlackoutSpan=%v, want 3ms", c.Faults.BlackoutSpan)
	}
	if c.Net.HeldDeliveries == 0 || c.Net.ReleasedDeliveries != c.Net.HeldDeliveries {
		t.Fatalf("held=%d released=%d: every held delivery must be released on heal",
			c.Net.HeldDeliveries, c.Net.ReleasedDeliveries)
	}
}

// TestPartitionFalseSuspicionFencesStaleTraffic is the canonical scenario:
// the partition outlasts the detector, a live rank is declared dead and
// its replacement starts recovering, the link heals after recovery began,
// and the fenced stale incarnation's released traffic is discarded. The
// run completes consistently (every step consumes what its first
// execution did) with the structured false-suspicion outcome.
func TestPartitionFalseSuspicionFencesStaleTraffic(t *testing.T) {
	plan := &faultplan.Plan{
		Partitions: []faultplan.Partition{{
			At:           5 * sim.Millisecond,
			Groups:       [][]int{{0}, {1, 2, 3}},
			Duration:     25 * sim.Millisecond, // heal at 30ms
			SuspectAfter: 2 * sim.Millisecond,  // suspect at 7ms, fence+respawn at 22ms
		}},
	}
	cfg := faultedConfig(plan, 7)
	cfg.RecordDeliveries = true
	c := cluster.New(cfg)
	d := c.PrepareRun(ringPrograms(cfg.NP, 60, 256))
	d.Launch()
	res := c.RunLaunched(30 * sim.Minute)

	if res.Outcome != cluster.OutcomeFalseSuspicion {
		t.Fatalf("outcome %q, want %q", res.Outcome, cluster.OutcomeFalseSuspicion)
	}
	if len(res.FalseSuspicions) != 1 {
		t.Fatalf("false suspicions %v, want exactly one", res.FalseSuspicions)
	}
	fs := res.FalseSuspicions[0]
	if fs.Rank != 0 || fs.Incarnation != 1 {
		t.Fatalf("false suspicion %+v, want rank 0 incarnation 1", fs)
	}
	if fs.SuspectedAt != 7*sim.Millisecond || fs.FencedAt != 22*sim.Millisecond {
		t.Fatalf("false suspicion timing %+v, want suspect 7ms fence 22ms", fs)
	}
	if d.FalseSuspicions != 1 {
		t.Fatalf("dispatcher false suspicions=%d, want 1", d.FalseSuspicions)
	}
	if got := c.AggregateStats().FencedStaleMsgs; got == 0 {
		t.Fatal("no stale packets fenced: the healed partition must have released some")
	}
	// MustCompleted treats a survived false suspicion as completion.
	res.MustCompleted()
	checkDeliveries(t, c)
}

// TestDegradeLinkSlowsTheRun: a degraded pair completes, slower than the
// fault-free run, with both directions degraded until the run ends.
func TestDegradeLinkSlowsTheRun(t *testing.T) {
	base := runPlan(t, faultedConfig(nil, 5), 40)
	plan := &faultplan.Plan{
		Degrades: []faultplan.DegradeLink{{
			At: sim.Millisecond, From: 0, To: 1, Both: true,
			LatencyFactor: 8, BandwidthFactor: 0.125,
			Jitter: 20 * sim.Microsecond,
		}},
	}
	c := runPlan(t, faultedConfig(plan, 5), 40)
	if c.Faults.Skipped != 0 {
		t.Fatalf("Skipped=%d, want 0", c.Faults.Skipped)
	}
	for _, l := range [][2]int{{0, 1}, {1, 0}} {
		if got := c.Net.Link(l[0], l[1]).State(); got != netmodel.LinkDegraded {
			t.Fatalf("link %d->%d is %v at the end, want degraded (Duration 0 lasts the run)", l[0], l[1], got)
		}
	}
	if c.K.Now() <= base.K.Now() {
		t.Fatalf("degraded run (%v) not slower than fault-free (%v)", c.K.Now(), base.K.Now())
	}
}

// TestSameInstantOpsKeepPlanOrder pins the tie-break the kernel applies to
// plan operations landing on one instant: they execute in the order the
// plan lists its components (outages, then partitions, then degrades), so
// every recorded timeline is a function of the plan alone.
func TestSameInstantOpsKeepPlanOrder(t *testing.T) {
	const at = 5 * sim.Millisecond
	plan := &faultplan.Plan{
		Outages: []faultplan.Outage{{
			Target: faultplan.OutageEventLogger, At: at, Duration: sim.Millisecond,
		}},
		Partitions: []faultplan.Partition{{
			At: at, Groups: [][]int{{0}, {1, 2, 3}}, Duration: sim.Millisecond,
		}},
		Degrades: []faultplan.DegradeLink{{
			At: at, From: 0, To: 1, LatencyFactor: 2,
		}},
	}
	cfg := faultedConfig(plan, 3)
	cfg.Trace = true
	c := runPlan(t, cfg, 40)
	defer c.Close()
	var got []string
	for _, ev := range c.Timeline.Events() {
		switch ev.Kind {
		case obs.KindOutage, obs.KindPartitionCut, obs.KindDegrade:
			if ev.T != at {
				t.Fatalf("%v recorded at %v, want %v", ev.Kind, ev.T, at)
			}
			got = append(got, ev.Kind.String())
		}
	}
	want := []string{"outage", "partition-cut", "degrade"}
	if !slices.Equal(got, want) {
		t.Fatalf("same-instant ops ran as %v, want %v", got, want)
	}
}

// TestRestartDelayDistributionDeterministic: the per-fault draws come from
// the plan's own stream — identical (plan, seed) reproduce the run
// exactly; a different plan seed samples different delays.
func TestRestartDelayDistributionDeterministic(t *testing.T) {
	mkPlan := func(seed int64) *faultplan.Plan {
		return &faultplan.Plan{
			Seed: seed,
			Correlated: []faultplan.CorrelatedKill{
				{At: 4 * sim.Millisecond, Ranks: []int{1}},
				{At: 12 * sim.Millisecond, Ranks: []int{2}},
			},
			RestartDelay: faultplan.DelayDist{Min: 2 * sim.Millisecond, Max: 40 * sim.Millisecond},
		}
	}
	elapsed := func(planSeed int64) sim.Time {
		c := runPlan(t, faultedConfig(mkPlan(planSeed), 3), 40)
		return c.K.Now()
	}
	a, b, other := elapsed(101), elapsed(101), elapsed(102)
	if a != b {
		t.Fatalf("identical (plan, seed) diverged: %v vs %v", a, b)
	}
	if a == other {
		t.Fatal("different plan seeds drew identical restart delays (suspicious)")
	}
}
