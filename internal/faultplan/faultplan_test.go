package faultplan_test

import (
	"regexp"
	"slices"
	"testing"

	"mpichv/internal/checkpoint"
	"mpichv/internal/cluster"
	"mpichv/internal/daemon"
	"mpichv/internal/event"
	"mpichv/internal/eventlogger"
	"mpichv/internal/failure"
	"mpichv/internal/faultplan"
	"mpichv/internal/mpi"
	"mpichv/internal/obs"
	"mpichv/internal/sim"
	"mpichv/internal/trace"
)

// ringPrograms is the standard fault-tolerance exercise: compute + ring
// exchange with a periodic all-reduce.
func ringPrograms(np, iters, bytes int) []failure.Program {
	progs := make([]failure.Program, np)
	for r := 0; r < np; r++ {
		progs[r] = func(n *daemon.Node) {
			c := mpi.NewComm(n)
			right := (c.Rank() + 1) % np
			left := (c.Rank() - 1 + np) % np
			for it := 0; it < iters; it++ {
				c.Compute(200 * sim.Microsecond)
				c.Send(right, 1, bytes)
				c.Recv(left, 1)
				if it%5 == 4 {
					c.Allreduce(16)
				}
			}
		}
	}
	return progs
}

// faultedConfig is a 4-rank Vcausal deployment with checkpointing tight
// enough that restarts make progress.
func faultedConfig(plan *faultplan.Plan, seed int64) cluster.Config {
	return cluster.Config{
		NP: 4, Stack: cluster.StackVcausal, Reducer: "vcausal", UseEL: true,
		CkptPolicy: checkpoint.PolicyRoundRobin, CkptInterval: 5 * sim.Millisecond,
		RestartDelay:  15 * sim.Millisecond,
		AppStateBytes: 64 << 10,
		Faults:        plan,
		Seed:          seed,
	}
}

// checkDeliveries fails unless every consumption at a step, in every
// incarnation of every rank, equals the first one (RecordDeliveries).
func checkDeliveries(t *testing.T, c *cluster.Cluster) {
	t.Helper()
	for r, n := range c.Nodes {
		first := make(map[int64]daemon.DeliveryRecord)
		for _, d := range n.Deliveries {
			if f, ok := first[d.Step]; !ok {
				first[d.Step] = d
			} else if d != f {
				t.Fatalf("rank %d step %d replay consumed %+v, original %+v", r, d.Step, d, f)
			}
		}
	}
}

// runPlan executes the deployment to completion, checks its delivery
// logs and returns the cluster.
func runPlan(t *testing.T, cfg cluster.Config, iters int) *cluster.Cluster {
	t.Helper()
	cfg.RecordDeliveries = true
	c := cluster.New(cfg)
	d := c.PrepareRun(ringPrograms(cfg.NP, iters, 256))
	d.Launch()
	c.RunLaunched(30 * sim.Minute).MustCompleted()
	checkDeliveries(t, c)
	return c
}

// rejection is the shape of every Validate error: the component kind and
// its index (the restart delay is a single component).
var rejection = regexp.MustCompile(`^faultplan: ((storm|correlated kill|cascade|outage|partition|degrade) \d+|restart delay): `)

// mustReject demands that Validate refuse every plan at np 4, naming the
// offending component.
func mustReject(t *testing.T, bad []faultplan.Plan) {
	t.Helper()
	for i := range bad {
		err := bad[i].Validate(4)
		if err == nil {
			t.Errorf("plan %d: Validate accepted an invalid plan", i)
		} else if !rejection.MatchString(err.Error()) {
			t.Errorf("plan %d: error %q does not name the component kind and index", i, err)
		}
	}
}

func TestValidateRejectsBadPlans(t *testing.T) {
	bad := []faultplan.Plan{
		{Storms: []faultplan.Storm{{Poisson: true}}},
		{Storms: []faultplan.Storm{{MinInterval: 0, MaxInterval: sim.Second}}},
		{Storms: []faultplan.Storm{{MinInterval: 2 * sim.Second, MaxInterval: sim.Second}}},
		// A negative Start schedules the first arrival before the run
		// begins (FuzzPlan's first crasher).
		{Storms: []faultplan.Storm{{Poisson: true, MeanInterval: sim.Second, Start: -sim.Second}}},
		{Storms: []faultplan.Storm{{Poisson: true, MeanInterval: sim.Second, Victims: "nearest"}}},
		// A storm draws its victims; only a cascade names a fixed one.
		{Storms: []faultplan.Storm{{Poisson: true, MeanInterval: sim.Second, Victims: faultplan.VictimFixed}}},
		{Correlated: []faultplan.CorrelatedKill{{At: sim.Second}}},
		{Correlated: []faultplan.CorrelatedKill{{At: sim.Second, Ranks: []int{12}}}},
		// A rank listed twice would be killed twice in one instant: two
		// kills counted and recorded, the first respawn superseded.
		{Correlated: []faultplan.CorrelatedKill{{At: sim.Second, Ranks: []int{1, 2, 1}}}},
		{Cascades: []faultplan.Cascade{{Trigger: "reboot"}}},
		{Cascades: []faultplan.Cascade{{Trigger: faultplan.OnKill, Delay: -sim.Second}}},
		{Cascades: []faultplan.Cascade{{Trigger: faultplan.OnKill, OfRank: -1}}},
		{Cascades: []faultplan.Cascade{{Trigger: faultplan.OnKill, Probability: 1.5}}},
		{Cascades: []faultplan.Cascade{{Trigger: faultplan.OnRestart, OfRank: faultplan.OnlyRank(9)}}},
		{Cascades: []faultplan.Cascade{{Trigger: faultplan.OnRestart, Victims: faultplan.VictimFixed, Rank: 9}}},
		// Unbounded OnKill cascade with zero delay: would re-kill at the
		// same virtual instant forever (livelock).
		{Cascades: []faultplan.Cascade{{Trigger: faultplan.OnKill}}},
		{Outages: []faultplan.Outage{{Target: "scheduler", At: 0, Duration: sim.Second}}},
		{Outages: []faultplan.Outage{{Target: faultplan.OutageCkptServer, At: 0, Duration: 0}}},
	}
	mustReject(t, bad)
	good := faultplan.Plan{
		Storms:     []faultplan.Storm{{Poisson: true, MeanInterval: sim.Second}},
		Correlated: []faultplan.CorrelatedKill{{At: sim.Second, Ranks: []int{0, 1}}},
		Cascades:   []faultplan.Cascade{{Trigger: faultplan.OnRestart, Probability: 0.5}},
		Outages:    []faultplan.Outage{{Target: faultplan.OutageEventLogger, At: sim.Second, Duration: sim.Second}},
	}
	if err := good.Validate(4); err != nil {
		t.Fatalf("Validate rejected a valid plan: %v", err)
	}
}

func TestInvalidPlanPanicsAtPrepareRun(t *testing.T) {
	cfg := faultedConfig(&faultplan.Plan{Storms: []faultplan.Storm{{Poisson: true}}}, 1)
	c := cluster.New(cfg)
	defer func() {
		if recover() == nil {
			t.Fatal("PrepareRun accepted an invalid fault plan")
		}
	}()
	c.PrepareRun(ringPrograms(cfg.NP, 10, 256))
}

// TestPoissonStormDeterministic runs the same Poisson storm twice and
// demands identical trajectories: same completion time, same kill count,
// same aggregate stats.
func TestPoissonStormDeterministic(t *testing.T) {
	plan := &faultplan.Plan{
		Storms: []faultplan.Storm{{
			Poisson: true, MeanInterval: 40 * sim.Millisecond,
			Victims: faultplan.VictimRandom,
		}},
	}
	type outcome struct {
		end   sim.Time
		kills int64
		stats trace.Stats
	}
	run := func() outcome {
		c := runPlan(t, faultedConfig(plan, 7), 150)
		return outcome{end: c.K.Now(), kills: c.Dispatcher.Kills, stats: c.AggregateStats()}
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same plan+seed diverged:\n  a=%+v\n  b=%+v", a, b)
	}
	if a.kills == 0 {
		t.Fatal("storm injected no faults")
	}
	// A different seed must follow a different sample path.
	c := runPlan(t, faultedConfig(plan, 8), 150)
	if c.K.Now() == a.end && c.Dispatcher.Kills == a.kills {
		t.Fatal("different seeds produced an identical trajectory")
	}
}

func TestUniformStormWindowAndCap(t *testing.T) {
	plan := &faultplan.Plan{
		Storms: []faultplan.Storm{{
			MinInterval: 10 * sim.Millisecond, MaxInterval: 20 * sim.Millisecond,
			Start: 20 * sim.Millisecond, MaxKills: 2,
		}},
	}
	c := runPlan(t, faultedConfig(plan, 3), 150)
	if got := c.Faults.Kills; got != 2 {
		t.Fatalf("MaxKills=2 storm injected %d faults", got)
	}
	if c.Dispatcher.Kills != 2 {
		t.Fatalf("dispatcher saw %d kills, want 2", c.Dispatcher.Kills)
	}
}

// TestCorrelatedKillAndCascade exercises a multi-rank kill whose recovery
// triggers a cascaded fault on a third rank — landing inside the
// recovering ranks' restart/recovery window.
func TestCorrelatedKillAndCascade(t *testing.T) {
	plan := &faultplan.Plan{
		Correlated: []faultplan.CorrelatedKill{{At: 30 * sim.Millisecond, Ranks: []int{0, 1}}},
		Cascades: []faultplan.Cascade{{
			Trigger: faultplan.OnRestart, OfRank: faultplan.OnlyRank(0),
			Delay:   sim.Millisecond,
			Victims: faultplan.VictimFixed, Rank: 2,
			MaxFires: 1,
		}},
	}
	c := runPlan(t, faultedConfig(plan, 5), 150)
	// Two correlated kills plus one cascaded kill.
	if c.Faults.Kills != 3 {
		t.Fatalf("plan kills = %d, want 3", c.Faults.Kills)
	}
	if c.Dispatcher.Restarts < 3 {
		t.Fatalf("restarts = %d, want >= 3", c.Dispatcher.Restarts)
	}
}

func TestCascadeProbabilityZeroOneSemantics(t *testing.T) {
	// Probability 0 (zero value) means "always": with one trigger the
	// cascade must fire.
	always := &faultplan.Plan{
		Correlated: []faultplan.CorrelatedKill{{At: 30 * sim.Millisecond, Ranks: []int{0}}},
		Cascades: []faultplan.Cascade{{
			Trigger: faultplan.OnRecovered, OfRank: faultplan.OnlyRank(0),
			Victims: faultplan.VictimFixed, Rank: 1, MaxFires: 1,
		}},
	}
	c := runPlan(t, faultedConfig(always, 2), 150)
	// The correlated kill plus the cascaded one.
	if c.Faults.Kills != 2 {
		t.Fatalf("plan kills = %d, want 2 (probability-0 cascade must fire once)", c.Faults.Kills)
	}
}

func TestEventLoggerOutageDelaysAcks(t *testing.T) {
	outage := &faultplan.Plan{
		Outages: []faultplan.Outage{{
			Target: faultplan.OutageEventLogger,
			At:     10 * sim.Millisecond, Duration: 60 * sim.Millisecond,
		}},
	}
	base := runPlan(t, faultedConfig(nil, 1), 120)
	hit := runPlan(t, faultedConfig(outage, 1), 120)
	if hit.Faults.Skipped != 0 {
		t.Fatalf("outages skipped = %d, want 0", hit.Faults.Skipped)
	}
	// While the EL is down acknowledgments stall, so piggyback elimination
	// lags and more determinant bytes ride on application messages.
	if hit.AggregateStats().PiggybackBytes <= base.AggregateStats().PiggybackBytes {
		t.Fatalf("EL outage should increase piggyback volume: with=%d without=%d",
			hit.AggregateStats().PiggybackBytes, base.AggregateStats().PiggybackBytes)
	}
}

func TestOutageSkippedWithoutService(t *testing.T) {
	plan := &faultplan.Plan{
		Outages: []faultplan.Outage{{
			Target: faultplan.OutageEventLogger,
			At:     10 * sim.Millisecond, Duration: 20 * sim.Millisecond,
		}},
	}
	cfg := cluster.Config{
		NP: 2, Stack: cluster.StackVdummy, Faults: plan, Seed: 1,
	}
	c := runPlan(t, cfg, 50)
	if c.Faults.Skipped != 1 {
		t.Fatalf("skipped=%d, want 1", c.Faults.Skipped)
	}
}

// TestVictimPoliciesSkipFinishedRanks aims a fixed-victim cascade at a
// rank that finished long before: the cascaded kill must be recorded as a
// miss, not re-run the finished program.
func TestVictimPoliciesSkipFinishedRanks(t *testing.T) {
	plan := &faultplan.Plan{
		Correlated: []faultplan.CorrelatedKill{{At: 30 * sim.Millisecond, Ranks: []int{0}}},
		Cascades: []faultplan.Cascade{{
			Trigger: faultplan.OnKill, Delay: sim.Millisecond,
			Victims: faultplan.VictimFixed, Rank: 1, MaxFires: 1,
		}},
	}
	cfg := cluster.Config{NP: 2, Stack: cluster.StackVdummy, Faults: plan, Seed: 1}
	c := cluster.New(cfg)
	runs := 0
	progs := []failure.Program{
		func(n *daemon.Node) { // rank 0: long
			for i := 0; i < 400; i++ {
				n.Compute(sim.Millisecond)
			}
		},
		func(n *daemon.Node) { // rank 1: finishes before the first kill
			runs++
			n.Compute(sim.Millisecond)
		},
	}
	d := c.PrepareRun(progs)
	d.Launch()
	c.RunLaunched(30 * sim.Minute).MustCompleted()
	if runs != 1 {
		t.Fatalf("finished rank re-ran %d times", runs)
	}
	if c.Faults.Kills != 1 || c.Faults.VictimMisses != 1 {
		t.Fatalf("plan kills %d, victim misses %d; want rank 0's kill and the cascade's miss", c.Faults.Kills, c.Faults.VictimMisses)
	}
}

// TestBurstStormKillsDistinctRanksSimultaneously: a Burst storm fells
// Burst distinct ranks in the same instant per arrival — the storm shape
// biased toward overlapping recoveries.
func TestBurstStormKillsDistinctRanksSimultaneously(t *testing.T) {
	plan := &faultplan.Plan{
		Storms: []faultplan.Storm{{
			MinInterval: 60 * sim.Millisecond, MaxInterval: 60 * sim.Millisecond,
			Burst: 2, MaxKills: 4,
		}},
	}
	c := cluster.New(faultedConfig(plan, 5))
	d := c.PrepareRun(ringPrograms(4, 150, 256))
	byTime := map[sim.Time][]int{}
	d.Observe(func(ev obs.Event) {
		if ev.Kind == obs.KindKill {
			byTime[ev.T] = append(byTime[ev.T], ev.Rank)
		}
	})
	d.Launch()
	c.RunLaunched(30 * sim.Minute).MustCompleted()

	if c.Faults.Kills != 4 {
		t.Fatalf("storm injected %d kills, want 4", c.Faults.Kills)
	}
	if len(byTime) != 2 {
		t.Fatalf("kills landed at %d instants, want 2 bursts: %v", len(byTime), byTime)
	}
	for at, ranks := range byTime {
		if len(ranks) != 2 {
			t.Fatalf("burst at %v felled %v, want 2 ranks", at, ranks)
		}
		if ranks[0] == ranks[1] {
			t.Fatalf("burst at %v doubled up on rank %d", at, ranks[0])
		}
	}
}

func TestValidateRejectsBadBursts(t *testing.T) {
	var bad []faultplan.Plan
	for _, s := range []faultplan.Storm{
		{MinInterval: sim.Millisecond, MaxInterval: sim.Millisecond, Burst: -1},
		{MinInterval: sim.Millisecond, MaxInterval: sim.Millisecond, Burst: 9},
	} {
		bad = append(bad, faultplan.Plan{Storms: []faultplan.Storm{s}})
	}
	mustReject(t, bad)
}

// fuzzStacks are FuzzPlan's configurations of the ring, picked by the
// byte after the plan (a missing byte reads as 0, the first): five backed
// by Event Loggers, and coordinated checkpointing, which has none.
var fuzzStacks = []struct {
	stack, reducer string
	els            int
}{
	{cluster.StackVcausal, "vcausal", 1},
	{cluster.StackVcausal, "manetho", 1},
	{cluster.StackVcausal, "logon", 1},
	{cluster.StackPessimistic, "", 1},
	{cluster.StackVcausal, "vcausal", 2}, // under SyncBroadcast
	{cluster.StackCoordinated, "", 0},
}

// FuzzPlan decodes bytes into a plan on the 4-rank ring (correlated kills,
// one partition, one degrade, one outage, one storm, one cascade and a
// restart-delay distribution) and one of fuzzStacks, and demands that
// Validate never panic and that every plan it accepts runs, without a
// panic, to a typed outcome. Replay or re-execution must consume what the
// first execution of each step consumed, and every Event Logger's store
// must be gapless: it holds clocks 1..stable of each rank it serves. The
// seed corpus is the ext-faultstorm and ext-partition scenarios with
// seconds rescaled to milliseconds and ranks folded onto the ring (the
// first configuration), then restart-jitter under each other
// configuration and storm-outage under the other two reducers.
func FuzzPlan(f *testing.F) {
	ms := sim.Millisecond
	var last []byte
	ring := [][]int{{0}, {1, 2, 3}}
	for _, p := range []faultplan.Plan{
		// ext-faultstorm: poisson-storm, correlated, cascade,
		// recovery-overlap, storm-outage.
		{Storms: []faultplan.Storm{{Poisson: true, MeanInterval: 8 * ms, Victims: faultplan.VictimRandom}}},
		{Correlated: []faultplan.CorrelatedKill{{At: 12 * ms, Ranks: []int{0, 1, 2}}, {At: 30 * ms, Ranks: []int{2, 3}}}},
		{
			Correlated: []faultplan.CorrelatedKill{{At: 10 * ms, Ranks: []int{0}}},
			Cascades:   []faultplan.Cascade{{Trigger: faultplan.OnRecovered, Delay: ms / 10, Probability: 0.6, MaxFires: 4}},
		},
		{
			Correlated: []faultplan.CorrelatedKill{{At: 10 * ms, Ranks: []int{0}}},
			Cascades: []faultplan.Cascade{{
				Trigger: faultplan.OnKill, OfRank: faultplan.OnlyRank(0), Delay: 7 * ms,
				Victims: faultplan.VictimFixed, Rank: 0, MaxFires: 1,
			}},
		},
		stormOutage,
		// ext-partition: kill, blackout, false-suspect, degraded-link,
		// restart-jitter.
		{Correlated: []faultplan.CorrelatedKill{{At: 10 * ms, Ranks: []int{0}}}},
		{Partitions: []faultplan.Partition{{At: 10 * ms, Groups: ring, Duration: 3 * ms / 10}}},
		{Partitions: []faultplan.Partition{{At: 10 * ms, Groups: ring, Duration: 8 * ms / 10, SuspectAfter: 4 * ms / 10}}},
		{Degrades: []faultplan.DegradeLink{{
			At: 5 * ms, From: 0, To: 1, Both: true, LatencyFactor: 4, BandwidthFactor: 0.25,
			Jitter: ms / 10, Duration: 20 * ms,
		}}},
		{
			Storms:       []faultplan.Storm{{MinInterval: 6 * ms, MaxInterval: 10 * ms, Victims: faultplan.VictimRoundRobin, MaxKills: 4}},
			RestartDelay: faultplan.DelayDist{Min: ms / 10, Max: 6 * ms / 10},
		},
	} {
		c := planCodec{enc: true}
		c.plan(&p)
		var back faultplan.Plan
		(&planCodec{buf: c.buf}).plan(&back)
		if err := back.Validate(4); err != nil {
			f.Fatalf("seed %+v decodes to a plan Validate rejects: %v", p, err)
		}
		last = c.buf
		f.Add(c.buf)
	}
	// The last seed, restart-jitter's four-kill storm, under every other
	// configuration; storm-outage under the other two reducers.
	for stack := 1; stack < len(fuzzStacks); stack++ {
		f.Add(append(slices.Clone(last), byte(stack)))
	}
	c, p := planCodec{enc: true}, stormOutage
	c.plan(&p)
	for _, stack := range []byte{1, 2} {
		f.Add(append(slices.Clone(c.buf), stack))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var p faultplan.Plan
		var stack int
		dec := &planCodec{buf: data}
		dec.plan(&p)
		dec.upTo(&stack, len(fuzzStacks)-1)
		if p.Validate(4) != nil {
			return
		}
		fuzzRun(t, p, stack)
	})
}

// stormOutage is ext-faultstorm's storm-outage scenario folded onto the
// ring: a round-robin storm with an Event Logger outage inside it. The
// outage starts at 2 ms, while determinants still ride on the ring's
// messages; one starting at 15 ms leaves every reducer piggybacking what a
// run without an outage does.
var stormOutage = faultplan.Plan{
	Storms:  []faultplan.Storm{{Poisson: true, MeanInterval: 12 * sim.Millisecond, Victims: faultplan.VictimRoundRobin}},
	Outages: []faultplan.Outage{{Target: faultplan.OutageEventLogger, At: 2 * sim.Millisecond, Duration: 2 * sim.Millisecond}},
}

// fuzzRun runs plan p on the ring under fuzzStacks[stack] and applies
// FuzzPlan's checks: a typed outcome, replay consuming what each step's
// first execution consumed, and gapless logger stores. It returns the
// run's aggregate stats.
func fuzzRun(t *testing.T, p faultplan.Plan, stack int) trace.Stats {
	t.Helper()
	cfg := faultedConfig(&p, 1)
	fs := fuzzStacks[stack]
	cfg.Stack, cfg.Reducer, cfg.EventLoggers = fs.stack, fs.reducer, fs.els
	cfg.ELSync = eventlogger.SyncBroadcast // read only with two loggers
	cfg.RecordDeliveries = true
	c := cluster.New(cfg)
	defer c.Close()
	d := c.PrepareRun(ringPrograms(4, 60, 256))
	d.Launch()
	if res := c.RunLaunched(30 * sim.Minute); res.Outcome == "" {
		t.Fatalf("run ended without an outcome; stack %+v plan %+v", fs, p)
	}
	checkDeliveries(t, c)
	for r := range c.Nodes {
		if fs.els == 0 {
			break
		}
		el := c.ELs[r%len(c.ELs)] // eventlogger.EndpointFor's assignment
		if got, want := el.StoredFor(event.Rank(r)), el.Stable()[r]; uint64(got) != want {
			t.Fatalf("logger stores %d determinants of rank %d, stable clock %d; stack %+v plan %+v",
				got, r, want, fs, p)
		}
	}
	return c.AggregateStats()
}

// TestReducersDivergeOnStormOutage keeps FuzzPlan's reducer axis biting:
// on the storm-outage seed, Vcausal must piggyback a different number of
// determinants than Manetho (its floors are direct exchanges alone), while
// Manetho and LogOn, which emit the same set in different encodings, must
// piggyback the same number.
func TestReducersDivergeOnStormOutage(t *testing.T) {
	var stats [3]trace.Stats
	for stack := range stats {
		stats[stack] = fuzzRun(t, stormOutage, stack)
	}
	v, m, l := stats[0].PiggybackEvents, stats[1].PiggybackEvents, stats[2].PiggybackEvents
	if v == m || m != l {
		t.Fatalf("piggybacked determinants: vcausal %d, manetho %d, logon %d; want vcausal apart and manetho = logon", v, m, l)
	}
	t.Logf("piggybacked determinants: vcausal %d, manetho %d, logon %d; bytes %d, %d, %d",
		v, m, l, stats[0].PiggybackBytes, stats[1].PiggybackBytes, stats[2].PiggybackBytes)
}

// fuzzTick is FuzzPlan's time unit: a signed 16-bit count of ticks spans
// ±327 ms, several times the fuzzed ring's run.
const fuzzTick = 10 * sim.Microsecond

// planCodec walks a plan field by field, decoding bytes into it or (enc)
// encoding it to bytes, so FuzzPlan's input format is written down once.
// A decoder reads a missing byte as zero; an encoder drops what the format
// cannot hold.
type planCodec struct {
	enc bool
	buf []byte
}

func (c *planCodec) u8(v *int) {
	if c.enc {
		c.buf = append(c.buf, byte(*v))
		return
	}
	*v = 0
	if len(c.buf) > 0 {
		*v, c.buf = int(c.buf[0]), c.buf[1:]
	}
}

// i8 codes a signed byte: ranks, Burst, OfRank.
func (c *planCodec) i8(v *int) {
	b := *v
	c.u8(&b)
	if !c.enc {
		*v = int(int8(b))
	}
}

// upTo codes a value in [0, n].
func (c *planCodec) upTo(v *int, n int) {
	b := *v
	c.u8(&b)
	if !c.enc {
		*v = b % (n + 1)
	}
}

// capped codes a generator's cap in [1, n]: never 0 (unlimited), so every
// fuzzed storm and cascade stops by itself.
func (c *planCodec) capped(v *int, n int) {
	b := *v - 1
	c.upTo(&b, n-1)
	*v = b + 1
}

func (c *planCodec) time(v *sim.Time) {
	u := uint16(*v / fuzzTick)
	hi, lo := int(u>>8), int(u&0xff)
	c.u8(&hi)
	c.u8(&lo)
	*v = sim.Time(int16(hi<<8|lo)) * fuzzTick
}

func (c *planCodec) ratio(v *float64, scale float64) {
	b := int(*v * scale)
	c.u8(&b)
	*v = float64(b) / scale
}

func (c *planCodec) flag(v *bool) {
	b := 0
	if *v {
		b = 1
	}
	c.u8(&b)
	*v = b&1 == 1
}

func (c *planCodec) ranks(s *[]int) {
	for i := range codeLen(c, s, 3) {
		c.i8(&(*s)[i])
	}
}

// codeLen codes a slice's length (at most n), allocating the slice when
// decoding, and returns the length to walk.
func codeLen[T any](c *planCodec, s *[]T, n int) int {
	l := min(len(*s), n)
	c.upTo(&l, n)
	if !c.enc {
		*s = make([]T, l)
	}
	return l
}

// codeEnum codes one of names, or an unknown value past them.
func codeEnum[T ~string](c *planCodec, v *T, names ...T) {
	i := slices.Index(names, *v)
	if i < 0 {
		i = len(names)
	}
	c.upTo(&i, len(names))
	if i == len(names) {
		*v = "unknown"
	} else {
		*v = names[i]
	}
}

func (c *planCodec) plan(p *faultplan.Plan) {
	seed := int(p.Seed)
	c.u8(&seed)
	p.Seed = int64(seed)
	for i := range codeLen(c, &p.Correlated, 3) {
		k := &p.Correlated[i]
		c.time(&k.At)
		c.ranks(&k.Ranks)
	}
	for i := range codeLen(c, &p.Partitions, 1) {
		pt := &p.Partitions[i]
		c.time(&pt.At)
		c.time(&pt.Duration)
		c.time(&pt.SuspectAfter)
		for g := range codeLen(c, &pt.Groups, 3) {
			c.ranks(&pt.Groups[g])
		}
	}
	for i := range codeLen(c, &p.Degrades, 1) {
		dg := &p.Degrades[i]
		c.time(&dg.At)
		c.time(&dg.Duration)
		c.time(&dg.Jitter)
		c.i8(&dg.From)
		c.i8(&dg.To)
		c.flag(&dg.Both)
		c.ratio(&dg.LatencyFactor, 16)
		c.ratio(&dg.BandwidthFactor, 128)
	}
	for i := range codeLen(c, &p.Outages, 1) {
		o := &p.Outages[i]
		codeEnum(c, &o.Target, faultplan.OutageEventLogger, faultplan.OutageCkptServer)
		c.time(&o.At)
		c.time(&o.Duration)
	}
	for i := range codeLen(c, &p.Storms, 1) {
		s := &p.Storms[i]
		c.flag(&s.Poisson)
		c.time(&s.MeanInterval)
		c.time(&s.MinInterval)
		c.time(&s.MaxInterval)
		c.time(&s.Start)
		codeEnum(c, &s.Victims, "", faultplan.VictimRoundRobin, faultplan.VictimRandom)
		c.i8(&s.Burst)
		c.capped(&s.MaxKills, 8)
	}
	for i := range codeLen(c, &p.Cascades, 1) {
		cs := &p.Cascades[i]
		codeEnum(c, &cs.Trigger, faultplan.OnKill, faultplan.OnRestart, faultplan.OnRecovered)
		c.i8(&cs.OfRank)
		c.time(&cs.Delay)
		c.ratio(&cs.Probability, 128)
		codeEnum(c, &cs.Victims, "", faultplan.VictimRoundRobin, faultplan.VictimRandom, faultplan.VictimFixed)
		c.i8(&cs.Rank)
		c.capped(&cs.MaxFires, 4)
	}
	c.time(&p.RestartDelay.Min)
	c.time(&p.RestartDelay.Max)
}
