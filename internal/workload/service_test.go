package workload

import (
	"math/rand"
	"sort"
	"testing"

	"mpichv/internal/checkpoint"
	"mpichv/internal/cluster"
	"mpichv/internal/sim"
)

// serviceTestConfig is a small-but-busy service: 4 ranks, ~100 req/s each
// over a 200 ms window (≈80 requests), 500 µs of service compute.
func serviceTestConfig() ServiceConfig {
	return ServiceConfig{
		NP:          4,
		Seed:        42,
		RatePerRank: 100,
		Window:      200 * sim.Millisecond,
		ServiceTime: 500 * sim.Microsecond,
		// Keep checkpoint transactions cheap (a 1 MB default image costs
		// ~80 ms on the wire, which would dominate a 200 ms window).
		AppStateBytes: 64 << 10,
	}
}

// stormConfig is the repository benchmark's service-storm build: NP 9, 2
// requests/s per rank over a 10-minute window (about 10,900 requests).
func stormConfig(seed int64) ServiceConfig {
	return ServiceConfig{
		NP: 9, Seed: seed, RatePerRank: 2, Window: 10 * sim.Minute,
		ServiceTime: 5 * sim.Millisecond, ReqBytes: 2 << 10, RespBytes: 8 << 10,
		AppStateBytes: 128 << 10,
	}
}

// referenceSchedule is the sort-based arrival order: every client's
// stream drawn, then all requests sorted by (time, client).
func referenceSchedule(cfg ServiceConfig) []serviceRequest {
	var reqs []serviceRequest
	for client := 0; client < cfg.NP; client++ {
		rng := rand.New(rand.NewSource(mix64(cfg.Seed, int64(client))))
		t := sim.Time(0)
		for {
			gap := sim.Time(rng.ExpFloat64() / cfg.RatePerRank * float64(sim.Second))
			if gap < 1 {
				gap = 1
			}
			t += gap
			if t >= cfg.Window {
				break
			}
			server := rng.Intn(cfg.NP - 1)
			if server >= client {
				server++
			}
			reqs = append(reqs, serviceRequest{client: client, server: server, at: t})
		}
	}
	sort.Slice(reqs, func(i, j int) bool {
		if reqs[i].at != reqs[j].at {
			return reqs[i].at < reqs[j].at
		}
		return reqs[i].client < reqs[j].client
	})
	for i := range reqs {
		reqs[i].gk = i
	}
	return reqs
}

// referenceOp is one op of the sort-based script expansion.
type referenceOp struct {
	at   sim.Time
	kind int32
	req  serviceRequest
}

// referenceScripts expands a schedule into per-rank scripts by appending
// every op and sorting each rank's by (time, kind, request index).
func referenceScripts(reqs []serviceRequest, np int) [][]referenceOp {
	ops := make([][]referenceOp, np)
	for _, r := range reqs {
		ops[r.client] = append(ops[r.client], referenceOp{r.at, opIssue, r})
		ops[r.server] = append(ops[r.server], referenceOp{r.at, opServe, r})
		ops[r.client] = append(ops[r.client], referenceOp{r.at + respDelay, opCollect, r})
	}
	for _, script := range ops {
		sort.Slice(script, func(i, j int) bool {
			if script[i].at != script[j].at {
				return script[i].at < script[j].at
			}
			if script[i].kind != script[j].kind {
				return script[i].kind < script[j].kind
			}
			return script[i].req.gk < script[j].req.gk
		})
	}
	return ops
}

// TestServiceBuildMatchesSortReference requires the merged schedule and
// scripts to equal the sort-based reference element for element. The
// clamped config draws every gap as 1 ns, so each instant holds one
// request per client: arrival ties must fall to client order, and a
// rank's issue must precede its same-instant serves of lower-indexed
// requests. The dense config lands collects on the instants of issues
// and serves.
func TestServiceBuildMatchesSortReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  ServiceConfig
	}{
		{"storm-seed1", stormConfig(1)},
		{"storm-seed7", stormConfig(7)},
		{"test", serviceTestConfig()},
		{"clamped", ServiceConfig{NP: 5, Seed: 3, RatePerRank: 1e12, Window: 3 * sim.Microsecond}},
		{"dense", ServiceConfig{NP: 3, Seed: 5, RatePerRank: 1e6, Window: 5 * sim.Millisecond}},
	} {
		name, cfg := tc.name, tc.cfg
		t.Run(name, func(t *testing.T) {
			want := referenceSchedule(cfg)
			got := scheduleRequests(cfg)
			if len(got) != len(want) {
				t.Fatalf("%d requests, reference has %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("request %d = %+v, reference %+v", i, got[i], want[i])
				}
			}
			wantOps, gotOps := referenceScripts(want, cfg.NP), serviceScripts(got, cfg.NP)
			var issueFirst, collectTies int // same-instant ties the config exercises
			for rank, ref := range wantOps {
				if len(gotOps[rank]) != len(ref) {
					t.Fatalf("rank %d: %d ops, reference has %d", rank, len(gotOps[rank]), len(ref))
				}
				for i, op := range gotOps[rank] {
					r := got[op.gk]
					at := r.at
					if op.kind == opCollect {
						at += respDelay
					}
					if w := ref[i]; op.kind != w.kind || r != w.req || at != w.at {
						t.Fatalf("rank %d op %d = kind %d of request %+v at %v, reference kind %d of %+v at %v",
							rank, i, op.kind, r, at, w.kind, w.req, w.at)
					}
					if i > 0 && ref[i-1].at == ref[i].at && ref[i-1].kind != ref[i].kind {
						if ref[i-1].req.gk > ref[i].req.gk {
							issueFirst++
						}
						if ref[i].kind == opCollect {
							collectTies++
						}
					}
				}
			}
			switch {
			case name == "clamped" && (issueFirst == 0 || len(got) != cfg.NP*int(cfg.Window-1)):
				t.Errorf("clamped: %d requests, %d issues ahead of lower-indexed serves; want every gap 1 ns and some", len(got), issueFirst)
			case name == "dense" && collectTies == 0:
				t.Error("dense: no collect shares an instant with an issue or serve")
			}
		})
	}
}

func BenchmarkBuildService(b *testing.B) {
	cfg := stormConfig(1)
	b.ReportAllocs()
	for b.Loop() {
		BuildService(cfg)
	}
}

func TestServiceScheduleDeterministic(t *testing.T) {
	a := scheduleRequests(serviceTestConfig())
	b := scheduleRequests(serviceTestConfig())
	if len(a) == 0 {
		t.Fatal("empty schedule")
	}
	if len(a) != len(b) {
		t.Fatalf("schedule lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// A different seed must yield a different stream.
	cfg := serviceTestConfig()
	cfg.Seed = 43
	c := scheduleRequests(cfg)
	same := len(c) == len(a)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seed 42 and 43 produced identical schedules")
	}
	for i, r := range a {
		if r.client == r.server {
			t.Fatalf("request %d is self-addressed", i)
		}
		if i > 0 && r.at < a[i-1].at {
			t.Fatalf("requests not in arrival order at %d", i)
		}
		if r.gk != i {
			t.Fatalf("gk %d != position %d", r.gk, i)
		}
	}
}

// TestServiceFaultFreeDrains runs a clean deployment: every request must
// complete before the horizon, with zero drops and sane latency quantiles.
func TestServiceFaultFreeDrains(t *testing.T) {
	in := BuildService(serviceTestConfig())
	c := cluster.New(cluster.Config{
		NP: 4, Stack: cluster.StackVcausal, Reducer: "vcausal", UseEL: true,
		Horizon: sim.Second, Seed: 7,
	})
	res := c.Run(in.Programs, 2*sim.Second)
	if res.Outcome != cluster.OutcomeCompleted {
		t.Fatalf("outcome = %v, want completed", res.Outcome)
	}
	s := in.Service
	if s.Scheduled() == 0 {
		t.Fatal("no requests scheduled")
	}
	if s.Dropped() != 0 {
		t.Fatalf("fault-free run dropped %d of %d requests", s.Dropped(), s.Scheduled())
	}
	if s.Completed() != s.Scheduled() {
		t.Fatalf("completed %d != scheduled %d", s.Completed(), s.Scheduled())
	}
	p50, p99 := s.Quantile(0.5), s.Quantile(0.99)
	if p50 <= 0 {
		t.Fatalf("p50 = %v, want > 0", p50)
	}
	if p99 < p50 {
		t.Fatalf("p99 (%v) < p50 (%v)", p99, p50)
	}
	if g := s.GoodputRPS(res.End); g <= 0 {
		t.Fatalf("goodput = %v, want > 0", g)
	}
}

// TestServiceSurvivesKill kills a serving rank mid-window on a causal
// stack with checkpointing: the run must still drain every request (the
// protocol replays the lost state), and the latency tail must record the
// recovery stall.
func TestServiceSurvivesKill(t *testing.T) {
	cleanIn := BuildService(serviceTestConfig())
	clean := cluster.New(cluster.Config{
		NP: 4, Stack: cluster.StackVcausal, Reducer: "vcausal", UseEL: true,
		CkptPolicy: checkpoint.PolicyRoundRobin, CkptInterval: 20 * sim.Millisecond,
		Horizon: 5 * sim.Second, Seed: 7,
	})
	cleanRes := clean.Run(cleanIn.Programs, 10*sim.Second)
	if cleanRes.Outcome != cluster.OutcomeCompleted {
		t.Fatalf("clean outcome = %v", cleanRes.Outcome)
	}

	in := BuildService(serviceTestConfig())
	c := cluster.New(cluster.Config{
		NP: 4, Stack: cluster.StackVcausal, Reducer: "vcausal", UseEL: true,
		CkptPolicy: checkpoint.PolicyRoundRobin, CkptInterval: 20 * sim.Millisecond,
		RestartDelay: 5 * sim.Millisecond,
		Horizon:      5 * sim.Second, Seed: 7,
	})
	d := c.PrepareRun(in.Programs)
	d.ScheduleFault(80*sim.Millisecond, 1)
	d.Launch()
	res := c.RunLaunched(10 * sim.Second)
	if res.Outcome != cluster.OutcomeCompleted {
		t.Fatalf("outcome = %v, want completed (horizon leaves ample slack)", res.Outcome)
	}
	s := in.Service
	if s.Dropped() != 0 {
		t.Fatalf("killed run dropped %d requests despite completing", s.Dropped())
	}
	if s.Completed() != s.Scheduled() {
		t.Fatalf("completed %d != scheduled %d", s.Completed(), s.Scheduled())
	}
	// The restart delay stalls in-flight requests; the faulted tail must
	// dominate the clean one.
	if faulted, cleanTail := s.Hist().Max(), cleanIn.Service.Hist().Max(); faulted < cleanTail {
		t.Errorf("faulted max latency %v < clean max %v", faulted, cleanTail)
	}
	if c.Availability() >= 1 {
		t.Errorf("availability = %v, want < 1 after a kill", c.Availability())
	}
	if c.MTTR() <= 0 {
		t.Errorf("MTTR = %v, want > 0 after a completed recovery", c.MTTR())
	}
}

// TestServiceHorizonCut pins the horizon termination mode: a horizon well
// inside the arrival window stops the kernel at exactly the horizon with
// outcome "horizon" and a positive drop count.
func TestServiceHorizonCut(t *testing.T) {
	in := BuildService(serviceTestConfig())
	c := cluster.New(cluster.Config{
		NP: 4, Stack: cluster.StackVcausal, Reducer: "vcausal", UseEL: true,
		Horizon: 100 * sim.Millisecond, Seed: 7,
	})
	res := c.Run(in.Programs, sim.Second)
	if res.Outcome != cluster.OutcomeHorizon {
		t.Fatalf("outcome = %v, want horizon", res.Outcome)
	}
	if res.End != 100*sim.Millisecond {
		t.Fatalf("end = %v, want exactly the 100ms horizon", res.End)
	}
	s := in.Service
	if s.Dropped() <= 0 {
		t.Fatalf("dropped = %d, want > 0 when the horizon cuts the window", s.Dropped())
	}
	if s.Completed() == 0 {
		t.Fatal("no requests completed before the horizon")
	}
}

// TestServiceRunDeterministic pins byte-level reproducibility: two
// identical faulted runs must agree on every collected figure.
func TestServiceRunDeterministic(t *testing.T) {
	run := func() (int, int, sim.Time, sim.Time, sim.Time) {
		in := BuildService(serviceTestConfig())
		c := cluster.New(cluster.Config{
			NP: 4, Stack: cluster.StackVcausal, Reducer: "manetho", UseEL: true,
			CkptPolicy: checkpoint.PolicyRoundRobin, CkptInterval: 20 * sim.Millisecond,
			RestartDelay: 5 * sim.Millisecond,
			Horizon:      5 * sim.Second, Seed: 11,
		})
		d := c.PrepareRun(in.Programs)
		d.ScheduleFault(60*sim.Millisecond, 2)
		d.Launch()
		res := c.RunLaunched(10 * sim.Second)
		s := in.Service
		return s.Completed(), s.Dropped(), s.Quantile(0.5), s.Quantile(0.99), res.End
	}
	c1, d1, p50a, p99a, e1 := run()
	c2, d2, p50b, p99b, e2 := run()
	if c1 != c2 || d1 != d2 || p50a != p50b || p99a != p99b || e1 != e2 {
		t.Fatalf("runs diverged: (%d,%d,%v,%v,%v) vs (%d,%d,%v,%v,%v)",
			c1, d1, p50a, p99a, e1, c2, d2, p50b, p99b, e2)
	}
}
