// Package faultplan compiles declarative multi-failure scenarios into
// primitive operations on a running deployment. The paper's central claim
// is that causal message logging keeps working under high fault rates; a
// Plan expresses the fault environments that stress that claim — fault
// storms, correlated multi-rank kills (a switch or power-rail failure),
// cascades triggered by recovery-path events (a fault landing inside a
// restart window or while it recovers), stable-server outages, network
// partitions and degraded links.
//
// A Plan is pure data and read-only after Apply: the same Plan value can be
// shared across every cell of a sweep. All stochastic draws come from
// private per-component RNG streams derived from the plan seed (falling
// back to the simulation seed), so a scenario is a deterministic function
// of (plan, seed) alone — independent of sweep worker count and of every
// other random decision in the simulation.
package faultplan

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"mpichv/internal/checkpoint"
	"mpichv/internal/eventlogger"
	"mpichv/internal/failure"
	"mpichv/internal/netmodel"
	"mpichv/internal/obs"
	"mpichv/internal/sim"
)

// VictimPolicy selects which rank a scheduled fault lands on. Every policy
// skips ranks whose program already finished (the dispatcher would ignore
// the kill); ranks inside a restart window remain eligible — killing them
// extends the outage, which is a scenario worth stressing.
type VictimPolicy string

// Victim policies.
const (
	// VictimRoundRobin cycles deterministically through the still-running
	// ranks (the default).
	VictimRoundRobin VictimPolicy = "rr"
	// VictimRandom picks uniformly among the still-running ranks.
	VictimRandom VictimPolicy = "random"
	// VictimFixed always targets the cascade's Rank field.
	VictimFixed VictimPolicy = "fixed"
)

// Storm is a stochastic fault-arrival process.
type Storm struct {
	// Poisson selects exponential inter-arrival times with mean
	// MeanInterval; otherwise arrivals are uniform on
	// [MinInterval, MaxInterval].
	Poisson      bool
	MeanInterval sim.Time
	MinInterval  sim.Time
	MaxInterval  sim.Time
	// Start opens the active window, which lasts until the application
	// completes.
	Start sim.Time
	// Victims selects the target rank per arrival: VictimRoundRobin (the
	// default) or VictimRandom.
	Victims VictimPolicy
	// Burst is the number of distinct ranks each arrival fells in the same
	// instant (0 and 1 both mean single kills) — a stochastic shared
	// failure domain. Bursts are the storm shape biased toward overlapping
	// recoveries: with the round-robin policy the victims are consecutive
	// ranks, which on grid workloads are communication partners — the
	// regime where EL-less causal logging loses determinants.
	Burst int
	// MaxKills caps the number of injected faults (0 = unlimited); a burst
	// is cut short when it reaches the cap.
	MaxKills int
}

// CorrelatedKill fells several ranks in the same instant — the model of a
// shared failure domain (one switch, one power rail, one chassis). Each
// rank is listed once.
type CorrelatedKill struct {
	At    sim.Time
	Ranks []int
}

// Trigger names the recovery-path events a Cascade can fire on.
type Trigger string

// Cascade triggers.
const (
	// OnKill fires when a fault is injected on a rank. With a Delay below
	// the dispatcher's RestartDelay, the cascaded fault lands inside the
	// trigger rank's restart window.
	OnKill Trigger = "kill"
	// OnRestart fires when a rank's new incarnation starts its recovery
	// procedure; a short Delay lands the cascaded fault while the trigger
	// rank is still collecting its checkpoint image and determinants.
	OnRestart Trigger = "restart"
	// OnRecovered fires when a rank's recovery procedure completes.
	OnRecovered Trigger = "recovered"
)

// OnlyRank encodes a cascade trigger-rank filter: Cascade.OfRank's zero
// value matches every rank, so "only rank r" is stored as r+1.
func OnlyRank(r int) int { return r + 1 }

// Cascade schedules a follow-on fault Delay after a trigger event.
type Cascade struct {
	Trigger Trigger
	// OfRank filters the trigger: the zero value matches events of every
	// rank; OnlyRank(r) restricts to rank r.
	OfRank int
	// Delay separates the trigger from the cascaded fault.
	Delay sim.Time
	// Probability is the chance the cascade fires per trigger event in
	// (0, 1); 0 (the zero value) and 1 both mean "always".
	Probability float64
	// Victims selects the cascaded fault's target; Rank is the
	// VictimFixed target.
	Victims VictimPolicy
	Rank    int
	// MaxFires caps how many trigger events launch the cascade
	// (0 = unlimited). Unlimited self-targeting cascades recur until the
	// run's virtual-time cap; cap them in bounded experiments.
	MaxFires int
}

// OutageTarget names the stable services a plan can take down.
type OutageTarget string

// Outage targets.
const (
	// OutageEventLogger suspends every deployed Event Logger server. A
	// plan applied to a deployment without an Event Logger skips the
	// outage (counted in Engine.Skipped) so one plan can sweep across
	// stacks with and without the EL.
	OutageEventLogger OutageTarget = "eventlogger"
	// OutageCkptServer suspends the checkpoint server.
	OutageCkptServer OutageTarget = "ckptserver"
)

// Outage takes a stable service offline for a window: requests arriving
// during it are served only once it ends (crash-reboot with stable storage
// intact).
type Outage struct {
	Target   OutageTarget
	At       sim.Time
	Duration sim.Time
}

// Partition severs every link between ranks of different Groups (both
// directions) at At. Ranks absent from every group — and the stable
// servers, which sit on dedicated endpoints — keep all their links: a
// rank-level partition models a failed leaf switch, with the service
// backbone on the dispatcher's side of the cut. A plan's partition windows
// may not overlap, so a partition's cut links come back only through its
// own heal.
type Partition struct {
	At sim.Time
	// Groups are the isolated rank sets. A rank listed in one group loses
	// its links to every rank of every other group.
	Groups [][]int
	// Duration bounds the blackout; the cross-group links heal (releasing
	// held deliveries) at At+Duration. 0 means the partition lasts until
	// the run ends.
	Duration sim.Time
	// SuspectAfter, when positive, models the majority side's failure
	// detector timing out on the unreachable ranks: at At+SuspectAfter —
	// inside the blackout — every rank outside the largest group (first
	// listed on ties) is declared dead through Dispatcher.Suspect. The
	// suspected processes stay alive behind the cut; when the link heals
	// after their replacements spawned, the stale incarnations have been
	// fenced and their held traffic is discarded by the incarnation guard.
	// 0 disables suspicion: the partition is a pure blackout.
	SuspectAfter sim.Time
}

// DegradeLink puts the directed link From→To (and To→From when Both) in
// the degraded state for a window: latency scaled by LatencyFactor,
// effective bandwidth scaled by BandwidthFactor, plus an optional
// per-delivery jitter drawn uniformly from [0, Jitter] out of a
// deterministic per-link stream.
type DegradeLink struct {
	At       sim.Time
	From, To int
	Both     bool
	// LatencyFactor ≥ 1 scales one-way latency (0 = unchanged).
	LatencyFactor float64
	// BandwidthFactor in (0, 1] scales the link's signalling rate
	// (0 = unchanged).
	BandwidthFactor float64
	// Jitter is the maximum extra per-delivery latency.
	Jitter sim.Time
	// Duration bounds the degradation; 0 means it lasts until the run
	// ends.
	Duration sim.Time
}

// DelayDist is a restart-delay distribution: the detection-plus-relaunch
// time drawn per fault, uniformly on [Min, Max], from the plan's own
// deterministic stream, replacing the deployment-wide constant. The zero
// value keeps the constant.
type DelayDist struct {
	Min, Max sim.Time
}

// uniform draws from [lo, hi].
func uniform(rng *rand.Rand, lo, hi sim.Time) sim.Time {
	if hi <= lo {
		return lo
	}
	return lo + sim.Time(rng.Int63n(int64(hi-lo)+1))
}

// Plan is a declarative multi-failure scenario. The zero value injects
// nothing.
type Plan struct {
	// Seed drives every stochastic draw of this plan. 0 falls back to the
	// simulation seed (Targets.Seed), giving each sweep cell an
	// independent sample path.
	Seed       int64
	Storms     []Storm
	Correlated []CorrelatedKill
	Cascades   []Cascade
	Outages    []Outage
	Partitions []Partition
	Degrades   []DegradeLink
	// RestartDelay, when set, replaces the dispatcher's constant restart
	// delay with per-fault draws from the plan's "restart-delay" stream.
	RestartDelay DelayDist
}

// opKind names a primitive operation: every plan compiles to one list of
// them, and storms and cascades, which decide at run time when to strike
// and whom, emit the same kill. Every kind from opCut on acts on the link
// fabric.
type opKind uint8

const (
	opKill    opKind = iota // kill ranks
	opOutage                // suspend Outages[idx]'s service for its Duration
	opCut                   // sever Partitions[idx]'s cross-group links
	opSuspect               // declare ranks dead behind Partitions[idx]'s cut
	opHeal                  // restore Partitions[idx]'s cross-group links
	opDegrade               // open Degrades[idx]'s window
	opClear                 // close Degrades[idx]'s window
)

// op is one timed primitive operation.
type op struct {
	at    sim.Time
	kind  opKind
	idx   int   // plan component index (the timeline's Arg)
	ranks []int // opKill victims, opSuspect suspects
}

// Validate checks the plan's shape against the given rank count (np <= 0
// skips range checks). It is called by Apply; exported so specs can be
// checked when they are built rather than when the simulation starts.
func (p *Plan) Validate(np int) error {
	_, err := p.compile(np)
	return err
}

// compile validates the plan and lowers its timed components to primitive
// ops, in the order Apply schedules them: correlated kills, outages, each
// partition's cut, suspect and heal, then each degrade's onset and clear.
// The kernel breaks same-instant ties by scheduling order, so this order
// is behaviour. Storms and cascades emit their kills at run time; only
// their parameters are checked here.
func (p *Plan) compile(np int) ([]op, error) {
	var (
		ops  []op
		what string // the component under check, named by every error
		err  error  // the first failure
	)
	fail := func(bad bool, format string, args ...any) {
		if bad && err == nil {
			err = fmt.Errorf("faultplan: %s: %s", what, fmt.Sprintf(format, args...))
		}
	}
	rank := func(role string, r int) {
		fail(r < 0 || (np > 0 && r >= np), "%s rank %d out of range (np=%d)", role, r, np)
	}
	emit := func(at sim.Time, kind opKind, i int, ranks []int) {
		fail(at < 0, "negative time %v", at)
		ops = append(ops, op{at: at, kind: kind, idx: i, ranks: ranks})
	}
	for i, s := range p.Storms {
		what = fmt.Sprintf("storm %d", i)
		fail(s.Poisson && s.MeanInterval <= 0, "Poisson storm needs MeanInterval > 0")
		fail(!s.Poisson && (s.MinInterval <= 0 || s.MaxInterval < s.MinInterval), "uniform storm needs 0 < MinInterval <= MaxInterval")
		fail(s.Start < 0, "negative Start %v", s.Start)
		fail(!slices.Contains([]VictimPolicy{"", VictimRoundRobin, VictimRandom}, s.Victims), "victim policy %q is not rr or random", s.Victims)
		fail(s.Burst < 0, "negative Burst %d", s.Burst)
		fail(np > 0 && s.Burst > np, "Burst %d exceeds np %d", s.Burst, np)
	}
	for i, ck := range p.Correlated {
		what = fmt.Sprintf("correlated kill %d", i)
		fail(len(ck.Ranks) == 0, "no ranks")
		for j, r := range ck.Ranks {
			rank("victim", r)
			fail(slices.Contains(ck.Ranks[:j], r), "rank %d listed twice", r)
		}
		emit(ck.At, opKill, i, ck.Ranks)
	}
	for i, cs := range p.Cascades {
		what = fmt.Sprintf("cascade %d", i)
		fail(!slices.Contains([]Trigger{OnKill, OnRestart, OnRecovered}, cs.Trigger), "unknown trigger %q", cs.Trigger)
		fail(cs.OfRank < 0, "negative OfRank %d (0 matches any rank; use OnlyRank(r) to filter)", cs.OfRank)
		if cs.OfRank > 0 {
			rank("trigger (OnlyRank)", cs.OfRank-1)
		}
		fail(cs.Delay < 0, "negative Delay")
		// An unbounded kill-triggered cascade with zero delay re-kills at
		// the same virtual instant forever: virtual time stops advancing,
		// so the virtual cap can never fire. Demand a bound.
		fail(cs.Trigger == OnKill && cs.Delay == 0 && cs.MaxFires == 0,
			"OnKill with Delay 0 and unlimited MaxFires would livelock at one instant; set Delay > 0 or MaxFires > 0")
		fail(!(cs.Probability >= 0 && cs.Probability <= 1), "Probability %v outside [0, 1]", cs.Probability)
		fail(!slices.Contains([]VictimPolicy{"", VictimRoundRobin, VictimRandom, VictimFixed}, cs.Victims), "unknown victim policy %q", cs.Victims)
		if cs.Victims == VictimFixed {
			rank("victim", cs.Rank)
		}
	}
	for i, o := range p.Outages {
		what = fmt.Sprintf("outage %d", i)
		fail(o.Target != OutageEventLogger && o.Target != OutageCkptServer, "unknown target %q", o.Target)
		fail(o.Duration <= 0, "needs Duration > 0")
		emit(o.At, opOutage, i, nil)
	}
	for i, pt := range p.Partitions {
		what = fmt.Sprintf("partition %d", i)
		fail(pt.Duration < 0 || pt.SuspectAfter < 0, "negative time field")
		fail(len(pt.Groups) < 2, "needs at least two groups")
		seen := make(map[int]bool)
		for gi, g := range pt.Groups {
			fail(len(g) == 0, "group %d is empty", gi)
			for _, r := range g {
				rank("member", r)
				fail(seen[r], "rank %d in more than one group", r)
				seen[r] = true
			}
		}
		fail(pt.SuspectAfter > 0 && pt.Duration > 0 && pt.SuspectAfter >= pt.Duration,
			"SuspectAfter %v not inside Duration %v (the detector cannot time out on a healed link)", pt.SuspectAfter, pt.Duration)
		// Only a partition's own heal restores its cut links. Windows that
		// even touch would have one partition's heal and another's cut race
		// at the shared instant, so one must heal strictly before the other
		// cuts.
		for j, q := range p.Partitions[:i] {
			apart := (q.Duration > 0 && q.At+q.Duration < pt.At) || (pt.Duration > 0 && pt.At+pt.Duration < q.At)
			fail(!apart, "window overlaps partition %d's", j)
		}
		emit(pt.At, opCut, i, nil)
		if pt.SuspectAfter > 0 {
			emit(pt.At+pt.SuspectAfter, opSuspect, i, suspectSet(pt.Groups))
		}
		if pt.Duration > 0 {
			emit(pt.At+pt.Duration, opHeal, i, nil)
		}
	}
	for i, dg := range p.Degrades {
		what = fmt.Sprintf("degrade %d", i)
		fail(dg.Duration < 0 || dg.Jitter < 0, "negative time field")
		rank("From", dg.From)
		rank("To", dg.To)
		fail(dg.From == dg.To, "From and To are both rank %d (loopback never degrades)", dg.From)
		fail(!(dg.LatencyFactor == 0 || dg.LatencyFactor >= 1), "LatencyFactor %v must be >= 1 (or 0 for unchanged)", dg.LatencyFactor)
		fail(!(dg.BandwidthFactor >= 0 && dg.BandwidthFactor <= 1), "BandwidthFactor %v must be in (0, 1] (or 0 for unchanged)", dg.BandwidthFactor)
		emit(dg.At, opDegrade, i, nil)
		if dg.Duration > 0 {
			emit(dg.At+dg.Duration, opClear, i, nil)
		}
	}
	if dd := p.RestartDelay; dd != (DelayDist{}) {
		what = "restart delay"
		fail(dd.Min <= 0 || dd.Max < dd.Min, "needs 0 < Min <= Max")
	}
	return ops, err
}

// suspectSet lists the ranks the majority side's detector times out on:
// everyone outside the largest group (first listed on ties), in the
// plan's listing order.
func suspectSet(groups [][]int) []int {
	major := 0
	for gi, g := range groups {
		if len(g) > len(groups[major]) {
			major = gi
		}
	}
	var out []int
	for gi, g := range groups {
		if gi != major {
			out = append(out, g...)
		}
	}
	return out
}

// Targets is the running deployment a plan attaches to. Kernel and
// Dispatcher are required; the rest may be nil/empty when the deployment
// lacks them.
type Targets struct {
	Kernel     *sim.Kernel
	Dispatcher *failure.Dispatcher
	// EventLoggers are suspended by OutageEventLogger (empty: skipped).
	EventLoggers []*eventlogger.Server
	// CkptServer is suspended by OutageCkptServer (nil: skipped).
	CkptServer *checkpoint.Server
	// Network is the link fabric mutated by Partition and DegradeLink
	// windows (nil: such windows are skipped, counted in Engine.Skipped).
	Network *netmodel.Network
	// Seed is the fallback RNG seed when the plan's own Seed is 0.
	Seed int64
	// Recorder, when non-nil, receives fabric and outage timeline events
	// (Arg = plan component index; an outage records its duration and
	// target instead), all emitted by apply.
	Recorder *obs.Recorder
}

// Engine is a plan compiled onto a deployment: it owns all mutable
// scenario state (RNG streams, cursors, counters) so the Plan itself stays
// shareable.
type Engine struct {
	plan *Plan
	t    Targets
	seed int64

	storms, cascades []generator
	// degradeGen[i] names degrade i's window on its forward and reverse
	// links, so its clear ends that window and nothing newer.
	degradeGen [][2]int

	// Kills counts the faults the plan injected; VictimMisses counts the
	// kills dropped because no eligible victim remained; Skipped counts
	// the ops dropped because the deployment lacks their target (an Event
	// Logger, a checkpoint server, a network). PartitionsApplied counts
	// partition cuts and BlackoutSpan sums the windows of the partitions
	// that have healed.
	Kills             int64
	VictimMisses      int64
	Skipped           int64
	PartitionsApplied int64
	BlackoutSpan      sim.Time
}

// generator is the run-time state of one storm or cascade: its private
// stream, its round-robin cursor, and the kills (storm) or fires (cascade)
// it has issued.
type generator struct {
	rng    *rand.Rand
	cursor int
	count  int
}

// Apply validates the plan and compiles it onto the deployment: its timed
// components become kernel events, storms schedule their first arrival,
// cascades subscribe to the dispatcher's lifecycle stream. Call it after
// the dispatcher exists and before the kernel runs; kills that fire before
// Launch are deferred by the dispatcher to launch time.
func Apply(t Targets, p *Plan) (*Engine, error) {
	if t.Kernel == nil || t.Dispatcher == nil {
		return nil, fmt.Errorf("faultplan: Apply needs a kernel and a dispatcher")
	}
	ops, err := p.compile(t.Dispatcher.NP())
	if err != nil {
		return nil, err
	}
	seed := cmp.Or(p.Seed, t.Seed, 1)
	e := &Engine{
		plan: p, t: t, seed: seed,
		storms:     make([]generator, len(p.Storms)),
		cascades:   make([]generator, len(p.Cascades)),
		degradeGen: make([][2]int, len(p.Degrades)),
	}
	// Storm first arrivals are scheduled ahead of every op, so they win
	// same-instant ties.
	for i := range p.Storms {
		e.storms[i].rng = subRNG(seed, fmt.Sprintf("storm|%d|", i))
		e.startStorm(i)
	}
	for i := range p.Cascades {
		e.cascades[i].rng = subRNG(seed, fmt.Sprintf("cascade|%d|", i))
	}
	if len(p.Cascades) > 0 {
		t.Dispatcher.Observe(func(ev obs.Event) {
			if trig, ok := triggers[ev.Kind]; ok {
				e.fireCascades(trig, ev.Rank)
			}
		})
	}
	for _, o := range ops {
		t.Kernel.At(o.at, func() { e.apply(o) })
	}
	if dd := p.RestartDelay; dd != (DelayDist{}) {
		rng := subRNG(seed, "restart-delay")
		t.Dispatcher.RestartDelayFn = func() sim.Time { return uniform(rng, dd.Min, dd.Max) }
	}
	return e, nil
}

// apply executes one primitive op. It is the only place a plan acts on
// the dispatcher, the stable services or the fabric.
func (e *Engine) apply(o op) {
	d, net, now := e.t.Dispatcher, e.t.Network, e.t.Kernel.Now()
	if o.kind >= opCut && net == nil {
		e.Skipped++
		return
	}
	if (o.kind == opKill || o.kind == opSuspect) && d.AllDone() {
		return
	}
	switch o.kind {
	case opKill:
		for _, r := range o.ranks {
			if d.RankDone(r) {
				e.VictimMisses++
				continue
			}
			d.Kill(r)
			e.Kills++
		}
	case opOutage:
		out := &e.plan.Outages[o.idx]
		switch {
		case out.Target == OutageEventLogger && len(e.t.EventLoggers) > 0:
			for _, el := range e.t.EventLoggers {
				el.Suspend(out.Duration)
			}
		case out.Target == OutageCkptServer && e.t.CkptServer != nil:
			e.t.CkptServer.Suspend(out.Duration)
		default:
			e.Skipped++
			return
		}
		e.t.Recorder.Record(now, obs.KindOutage, -1, int64(out.Duration), string(out.Target))
	case opCut:
		pt := &e.plan.Partitions[o.idx]
		net.Partition(pt.Groups)
		e.PartitionsApplied++
		e.t.Recorder.Record(now, obs.KindPartitionCut, -1, int64(o.idx), "")
	case opSuspect:
		for _, r := range o.ranks {
			d.Suspect(r)
		}
	case opHeal:
		pt := &e.plan.Partitions[o.idx]
		net.HealPartition(pt.Groups)
		e.BlackoutSpan += pt.Duration
		e.t.Recorder.Record(now, obs.KindPartitionHeal, -1, int64(o.idx), "")
	case opDegrade:
		// The jitter stream is derived per plan component and per
		// direction, so one degraded pair's draws perturb nothing else.
		dg := &e.plan.Degrades[o.idx]
		jseed := sim.DeriveSeed(e.seed, fmt.Sprintf("degrade|%d|", o.idx))
		e.degradeGen[o.idx][0] = net.DegradeLink(dg.From, dg.To, dg.LatencyFactor, dg.BandwidthFactor, dg.Jitter, jseed)
		if dg.Both {
			e.degradeGen[o.idx][1] = net.DegradeLink(dg.To, dg.From, dg.LatencyFactor, dg.BandwidthFactor, dg.Jitter, jseed)
		}
		e.t.Recorder.Record(now, obs.KindDegrade, -1, int64(o.idx), "")
	case opClear:
		// The clear ends this window and nothing else: it never un-severs
		// a link a partition downed in the meantime, and a later degrade
		// window that took the link over (newer generation) keeps its
		// factors.
		dg := &e.plan.Degrades[o.idx]
		net.ClearDegrade(dg.From, dg.To, e.degradeGen[o.idx][0])
		if dg.Both {
			net.ClearDegrade(dg.To, dg.From, e.degradeGen[o.idx][1])
		}
		e.t.Recorder.Record(now, obs.KindDegradeClear, -1, int64(o.idx), "")
	}
}

// subRNG derives an independent deterministic stream per plan component,
// so one component's draw count never perturbs another's sample path.
func subRNG(seed int64, stream string) *rand.Rand {
	return rand.New(rand.NewSource(sim.DeriveSeed(seed, stream)))
}

func (e *Engine) startStorm(i int) {
	s := &e.plan.Storms[i]
	g := &e.storms[i]
	draw := func() sim.Time {
		if s.Poisson {
			return sim.Time(g.rng.ExpFloat64() * float64(s.MeanInterval))
		}
		return uniform(g.rng, s.MinInterval, s.MaxInterval)
	}
	capped := func() bool { return s.MaxKills > 0 && g.count >= s.MaxKills }
	burst := max(s.Burst, 1)
	var arrive func()
	arrive = func() {
		if e.t.Dispatcher.AllDone() {
			return
		}
		// A burst fells distinct ranks in the same instant (a shared
		// failure domain). Each victim dies before the next is picked — a
		// coordinated rollback returns finished ranks to the pool — and is
		// excluded from the rest of the burst.
		var chosen []int
		for len(chosen) < burst && !capped() {
			v := e.pick(s.Victims, 0, g, chosen)
			if v < 0 {
				break
			}
			chosen = append(chosen, v)
			e.apply(op{kind: opKill, ranks: chosen[len(chosen)-1:]})
			g.count++
		}
		if !capped() {
			e.t.Kernel.After(draw(), arrive)
		}
	}
	e.t.Kernel.At(s.Start+draw(), arrive)
}

// triggers maps the dispatcher lifecycle events cascades fire on.
var triggers = map[obs.Kind]Trigger{
	obs.KindKill: OnKill, obs.KindRestart: OnRestart, obs.KindRecovered: OnRecovered,
}

// fireCascades launches every cascade matching the trigger. The cascaded
// kill always goes through a kernel event — never synchronously — because
// triggers can fire from inside Kill itself or from a simulated process
// context.
func (e *Engine) fireCascades(trig Trigger, rank int) {
	for i := range e.plan.Cascades {
		c, g := &e.plan.Cascades[i], &e.cascades[i]
		// The probability draw comes last: only a matching cascade under
		// its cap consumes its stream.
		if c.Trigger != trig || (c.OfRank != 0 && c.OfRank != OnlyRank(rank)) ||
			(c.MaxFires > 0 && g.count >= c.MaxFires) ||
			(c.Probability > 0 && c.Probability < 1 && g.rng.Float64() >= c.Probability) {
			continue
		}
		g.count++
		e.t.Kernel.After(c.Delay, func() {
			if e.t.Dispatcher.AllDone() {
				return
			}
			if v := e.pick(c.Victims, c.Rank, g, nil); v >= 0 {
				e.apply(op{kind: opKill, ranks: []int{v}})
			}
		})
	}
}

// pick resolves a victim policy against the current run state, skipping
// the ranks in exclude (the victims a burst already chose). Eligible means
// "program still running": restarting ranks stay in the pool (killing them
// extends their outage), finished ranks leave it. When no eligible rank
// remains it counts a victim miss and returns -1.
func (e *Engine) pick(pol VictimPolicy, fixed int, g *generator, exclude []int) int {
	d, np := e.t.Dispatcher, e.t.Dispatcher.NP()
	eligible := func(r int) bool { return !d.RankDone(r) && !slices.Contains(exclude, r) }
	switch pol {
	case VictimFixed:
		if eligible(fixed) {
			return fixed
		}
	case VictimRandom:
		var candidates []int
		for r := 0; r < np; r++ {
			if eligible(r) {
				candidates = append(candidates, r)
			}
		}
		if len(candidates) > 0 {
			return candidates[g.rng.Intn(len(candidates))]
		}
	default: // VictimRoundRobin
		for i := 0; i < np; i++ {
			if r := (g.cursor + i) % np; eligible(r) {
				g.cursor = (r + 1) % np
				return r
			}
		}
	}
	e.VictimMisses++
	return -1
}
