package cluster

import (
	"bytes"
	"testing"

	"mpichv/internal/checkpoint"
	"mpichv/internal/failure"
	"mpichv/internal/obs"
	"mpichv/internal/sim"
)

// tracedFaultedConfig is the fixture for the observability tests: a
// Vcausal/EL deployment whose run survives one mid-flight kill.
func tracedFaultedConfig(np int) Config {
	return Config{
		NP: np, Stack: StackVcausal, Reducer: "vcausal", UseEL: true,
		CkptPolicy: checkpoint.PolicyRoundRobin, CkptInterval: 5 * sim.Millisecond,
		RestartDelay:  20 * sim.Millisecond,
		AppStateBytes: 64 << 10,
		Trace:         true,
	}
}

// TestTracedRunTimeline checks a traced faulted run reconstructs the
// fault story: the kill, the restart, the recovery phase windows and the
// recovery completion all reach the timeline in virtual-time order, with
// gauge samples interleaved.
func TestTracedRunTimeline(t *testing.T) {
	const np = 4
	c := New(tracedFaultedConfig(np))
	d := c.PrepareRun(ringPrograms(np, 120, 512))
	d.ScheduleFault(40*sim.Millisecond, 0)
	d.Launch()
	end := c.RunLaunched(30 * sim.Minute).MustCompleted()

	if c.Timeline == nil {
		t.Fatal("traced cluster has no timeline")
	}
	events := c.Timeline.Events()
	if len(events) == 0 {
		t.Fatal("traced run recorded no events")
	}
	counts := map[obs.Kind]int{}
	last := sim.Time(0)
	for _, ev := range events {
		if ev.T < last {
			t.Fatalf("timeline out of order: %v after %v", ev.T, last)
		}
		last = ev.T
		counts[ev.Kind]++
	}
	for _, want := range []obs.Kind{
		obs.KindKill, obs.KindRestart, obs.KindRecovered, obs.KindFinished,
		obs.KindRecoveryBegin, obs.KindRestoreBegin, obs.KindRestoreEnd,
		obs.KindRecoveryEnd, obs.KindCkptWave, obs.KindCkptBegin, obs.KindCkptEnd,
		obs.KindGaugeLiveRanks, obs.KindGaugeSenderLogBytes, obs.KindGaugeHeldDets,
		obs.KindGaugeELBacklog,
	} {
		if counts[want] == 0 {
			t.Errorf("timeline has no %v events (counts: %v)", want, counts)
		}
	}
	if counts[obs.KindKill] != 1 || counts[obs.KindRecovered] != 1 {
		t.Fatalf("kill/recovered counts = %d/%d, want 1/1", counts[obs.KindKill], counts[obs.KindRecovered])
	}
	if counts[obs.KindFinished] != np {
		t.Fatalf("finished count = %d, want %d", counts[obs.KindFinished], np)
	}

	// Both exporters accept the real timeline.
	if len(obs.JSONL(events)) == 0 {
		t.Fatal("empty JSONL export")
	}
	trace := obs.ChromeTrace(events, np, end)
	if !bytes.Contains(trace, []byte(`"traceEvents"`)) {
		t.Fatal("chrome trace missing traceEvents")
	}
}

// TestAvailabilityMatchesTimeline: the cluster feeds obs.Downtime live and
// obs.ComputeMetrics replays the recorded timeline through the same
// accumulator, so the two agree exactly if and only if every lifecycle
// event reached the timeline. The cases pin the window rules end to end.
func TestAvailabilityMatchesTimeline(t *testing.T) {
	const np = 4
	cases := []struct {
		name         string
		restartDelay sim.Time
		faults       func(c *Cluster, d *failure.Dispatcher)
		wantRepairs  int
		check        func(t *testing.T, c *Cluster, events []obs.Event)
	}{
		{
			name: "two kills, two repairs",
			faults: func(_ *Cluster, d *failure.Dispatcher) {
				d.ScheduleFault(40*sim.Millisecond, 0)
				d.ScheduleFault(90*sim.Millisecond, 2)
			},
			wantRepairs: 2,
		},
		{
			// The second kill finds rank 0 inside its image fetch: the same
			// outage continues, so one window — first kill to recovery —
			// closes as one repair.
			name: "kill lands mid-restore",
			faults: func(_ *Cluster, d *failure.Dispatcher) {
				d.ScheduleFault(40*sim.Millisecond, 0)
				d.ScheduleFault(60*sim.Millisecond+100*sim.Microsecond, 0)
			},
			wantRepairs: 1,
			check: func(t *testing.T, c *Cluster, events []obs.Event) {
				var kills, restoreBegins, restoreEnds int
				var firstKill, recovered sim.Time
				for _, ev := range events {
					if ev.Rank != 0 {
						continue
					}
					switch ev.Kind {
					case obs.KindKill:
						if kills++; kills == 1 {
							firstKill = ev.T
						} else if restoreBegins != 1 || restoreEnds != 0 {
							t.Errorf("second kill not mid-restore: %d restore-begin, %d restore-end before it", restoreBegins, restoreEnds)
						}
					case obs.KindRestoreBegin:
						restoreBegins++
					case obs.KindRestoreEnd:
						restoreEnds++
					case obs.KindRecovered:
						recovered = ev.T
					}
				}
				if kills != 2 || restoreBegins != 2 || restoreEnds != 1 {
					t.Errorf("kills=%d restore-begin=%d restore-end=%d, want 2/2/1", kills, restoreBegins, restoreEnds)
				}
				if c.MTTR() != recovered-firstKill {
					t.Errorf("MTTR %v, want the single window %v", c.MTTR(), recovered-firstKill)
				}
			},
		},
		{
			// A live rank is declared dead (as behind a partition) and
			// completes before its replacement would spawn: the respawn is
			// cancelled, no recovery ever happens, and the window closes at
			// completion as downtime — not as a repair.
			name:         "suspected rank finishes before the respawn",
			restartDelay: sim.Minute,
			faults: func(c *Cluster, d *failure.Dispatcher) {
				c.K.At(40*sim.Millisecond, func() { d.Suspect(1) })
			},
			wantRepairs: 0,
			check: func(t *testing.T, c *Cluster, events []obs.Event) {
				var suspected, finished sim.Time
				for _, ev := range events {
					if ev.Rank == 1 && ev.Kind == obs.KindSuspect {
						suspected = ev.T
					}
					if ev.Rank == 1 && ev.Kind == obs.KindFinished {
						finished = ev.T
					}
					if ev.Kind == obs.KindRestart || ev.Kind == obs.KindRecovered {
						t.Errorf("unexpected %v event", ev.Kind)
					}
				}
				if want := finished - suspected; c.DowntimeTotal() != want || c.MTTR() != 0 {
					t.Errorf("downtime %v MTTR %v, want %v and 0", c.DowntimeTotal(), c.MTTR(), want)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tracedFaultedConfig(np)
			if tc.restartDelay > 0 {
				cfg.RestartDelay = tc.restartDelay
			}
			c := New(cfg)
			d := c.PrepareRun(ringPrograms(np, 120, 512))
			tc.faults(c, d)
			d.Launch()
			res := c.RunLaunched(30 * sim.Minute)
			res.MustCompleted()

			m := obs.ComputeMetrics(c.Timeline.Events(), np, res.End)
			if m.Repairs != c.Repairs() {
				t.Errorf("repairs: timeline %d, cluster %d", m.Repairs, c.Repairs())
			}
			if m.MTTR != c.MTTR() {
				t.Errorf("MTTR: timeline %v, cluster %v", m.MTTR, c.MTTR())
			}
			if m.Downtime != c.DowntimeTotal() {
				t.Errorf("downtime: timeline %v, cluster %v", m.Downtime, c.DowntimeTotal())
			}
			if m.Availability != c.Availability() {
				t.Errorf("availability: timeline %v, cluster %v", m.Availability, c.Availability())
			}
			if c.Repairs() != tc.wantRepairs {
				t.Fatalf("repairs = %d, want %d", c.Repairs(), tc.wantRepairs)
			}
			if c.DowntimeTotal() <= 0 || (tc.wantRepairs > 0) != (c.MTTR() > 0) {
				t.Fatalf("MTTR %v / downtime %v inconsistent with %d repairs", c.MTTR(), c.DowntimeTotal(), tc.wantRepairs)
			}
			if a := c.Availability(); a <= 0 || a >= 1 {
				t.Fatalf("availability = %v, want in (0,1) for a faulted run", a)
			}
			if tc.check != nil {
				tc.check(t, c, c.Timeline.Events())
			}
		})
	}
}

// TestTracingOnlyObserves runs the same faulted deployment traced and
// untraced and requires identical results: end time, aggregate stats and
// availability figures. The observability layer must not perturb the run.
func TestTracingOnlyObserves(t *testing.T) {
	const np = 4
	run := func(traced bool) (*Cluster, RunResult) {
		cfg := tracedFaultedConfig(np)
		if !traced {
			cfg.Trace = false
		}
		c := New(cfg)
		d := c.PrepareRun(ringPrograms(np, 120, 512))
		d.ScheduleFault(40*sim.Millisecond, 0)
		d.Launch()
		return c, c.RunLaunched(30 * sim.Minute)
	}
	ct, rt := run(true)
	cu, ru := run(false)
	if cu.Timeline != nil {
		t.Fatal("untraced cluster grew a timeline")
	}
	if ct.Timeline.Len() == 0 {
		t.Fatal("traced cluster recorded nothing")
	}
	if rt.End != ru.End || rt.Outcome != ru.Outcome {
		t.Fatalf("traced run diverged: end %v/%v outcome %v/%v", rt.End, ru.End, rt.Outcome, ru.Outcome)
	}
	if st, su := ct.AggregateStats(), cu.AggregateStats(); st != su {
		t.Fatalf("traced stats diverged:\n%+v\n%+v", st, su)
	}
	// Availability accounting is always on, tracing or not.
	if ct.MTTR() != cu.MTTR() || ct.DowntimeTotal() != cu.DowntimeTotal() || ct.Availability() != cu.Availability() {
		t.Fatalf("availability diverged: %v/%v vs %v/%v", ct.MTTR(), ct.DowntimeTotal(), cu.MTTR(), cu.DowntimeTotal())
	}
}

// TestAvailabilityFaultFree: a run with no faults has full availability
// and zero repairs.
func TestAvailabilityFaultFree(t *testing.T) {
	const np = 4
	cfg := tracedFaultedConfig(np)
	cfg.Trace = false
	c := New(cfg)
	c.Run(ringPrograms(np, 50, 512), 10*sim.Minute).MustCompleted()
	if c.Repairs() != 0 || c.MTTR() != 0 || c.DowntimeTotal() != 0 {
		t.Fatalf("fault-free run accounted downtime: repairs=%d mttr=%v down=%v",
			c.Repairs(), c.MTTR(), c.DowntimeTotal())
	}
	if a := c.Availability(); a != 1 {
		t.Fatalf("fault-free availability = %v, want 1", a)
	}
}
