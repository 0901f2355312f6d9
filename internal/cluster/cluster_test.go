package cluster

import (
	"fmt"
	"testing"

	"mpichv/internal/checkpoint"
	"mpichv/internal/daemon"
	"mpichv/internal/event"
	"mpichv/internal/failure"
	"mpichv/internal/mpi"
	"mpichv/internal/sim"
)

// ringProgram builds a per-rank program: iters iterations of compute +
// ring exchange, with a small all-reduce every fifth iteration.
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

func pingPongPrograms(reps, bytes int) []failure.Program {
	return []failure.Program{
		func(n *daemon.Node) {
			c := mpi.NewComm(n)
			for i := 0; i < reps; i++ {
				c.Send(1, 0, bytes)
				c.Recv(1, 0)
			}
		},
		func(n *daemon.Node) {
			c := mpi.NewComm(n)
			for i := 0; i < reps; i++ {
				c.Recv(0, 0)
				c.Send(0, 0, bytes)
			}
		},
	}
}

func TestFaultFreeAllStacksComplete(t *testing.T) {
	const np = 4
	configs := []Config{
		{NP: np, Stack: StackRawTCP},
		{NP: np, Stack: StackP4},
		{NP: np, Stack: StackVdummy},
		{NP: np, Stack: StackVcausal, Reducer: "vcausal", UseEL: true},
		{NP: np, Stack: StackVcausal, Reducer: "manetho", UseEL: true},
		{NP: np, Stack: StackVcausal, Reducer: "logon", UseEL: false},
		{NP: np, Stack: StackPessimistic},
		{NP: np, Stack: StackCoordinated, CkptInterval: 20 * sim.Millisecond},
	}
	for _, cfg := range configs {
		name := cfg.Stack + "/" + cfg.Reducer
		c := New(cfg)
		end := c.Run(ringPrograms(np, 50, 1024), 10*sim.Minute).MustCompleted()
		if end <= 0 {
			t.Errorf("%s: zero completion time", name)
		}
		stats := c.AggregateStats()
		if stats.AppMsgsSent == 0 {
			t.Errorf("%s: no application messages", name)
		}
	}
}

func TestPingPongLatencyOrdering(t *testing.T) {
	run := func(stack, reducer string, useEL bool) sim.Time {
		c := New(Config{NP: 2, Stack: stack, Reducer: reducer, UseEL: useEL})
		return c.Run(pingPongPrograms(500, 1), sim.Minute).MustCompleted()
	}
	raw := run(StackRawTCP, "", false)
	p4 := run(StackP4, "", false)
	vdummy := run(StackVdummy, "", false)
	causalEL := run(StackVcausal, "vcausal", true)
	causalNoEL := run(StackVcausal, "vcausal", false)

	if !(raw < p4 && p4 < vdummy && vdummy < causalEL && causalEL < causalNoEL) {
		t.Fatalf("latency ordering violated: raw=%v p4=%v vdummy=%v causal+EL=%v causal-noEL=%v",
			raw, p4, vdummy, causalEL, causalNoEL)
	}
}

func TestEventLoggerStoresAllEvents(t *testing.T) {
	const np = 4
	c := New(Config{NP: np, Stack: StackVcausal, Reducer: "manetho", UseEL: true})
	c.Run(ringPrograms(np, 40, 512), 10*sim.Minute).MustCompleted()
	// Let in-flight log packets land: run any residual events.
	stats := c.AggregateStats()
	stored := int64(0)
	for r := 0; r < np; r++ {
		stored += int64(c.ELs[0].StoredFor(event.Rank(r)))
	}
	if stats.EventsCreated == 0 {
		t.Fatal("no events created")
	}
	// Everything shipped before completion must be stored; allow the last
	// few in-flight packets to be missing.
	if stored < stats.EventsCreated*9/10 {
		t.Fatalf("EL stored %d of %d events", stored, stats.EventsCreated)
	}
}

func TestELReducesPiggybackBytes(t *testing.T) {
	run := func(useEL bool) int64 {
		c := New(Config{NP: 4, Stack: StackVcausal, Reducer: "vcausal", UseEL: useEL})
		c.Run(ringPrograms(4, 60, 256), 10*sim.Minute).MustCompleted()
		return c.AggregateStats().PiggybackBytes
	}
	with, without := run(true), run(false)
	if with*2 > without {
		t.Fatalf("EL should cut piggyback volume sharply: with=%d without=%d", with, without)
	}
}

// runWithCrash executes ring programs with checkpointing and a fault on
// rank 0, returning the per-rank delivery logs.
func runWithCrash(t *testing.T, stack, reducer string, useEL bool, crashAt sim.Time) ([]map[int64]daemon.DeliveryRecord, sim.Time) {
	t.Helper()
	const np = 4
	cfg := Config{
		NP: np, Stack: stack, Reducer: reducer, UseEL: useEL,
		CkptPolicy: checkpoint.PolicyRoundRobin, CkptInterval: 5 * sim.Millisecond,
		RecordDeliveries: true,
		RestartDelay:     20 * sim.Millisecond,
		AppStateBytes:    64 << 10,
	}
	if stack == StackCoordinated {
		cfg.CkptPolicy = checkpoint.PolicyCoordinated
		cfg.CkptInterval = 10 * sim.Millisecond
	}
	c := New(cfg)
	d := c.PrepareRun(ringPrograms(np, 120, 512))
	if crashAt > 0 {
		d.ScheduleFault(crashAt, 0)
	}
	d.Launch()
	end := c.RunLaunched(30 * sim.Minute).MustCompleted()
	logs := make([]map[int64]daemon.DeliveryRecord, np)
	for r := 0; r < np; r++ {
		logs[r] = c.Nodes[r].Deliveries
	}
	return logs, end
}

func compareDeliveryLogs(t *testing.T, name string, ref, got []map[int64]daemon.DeliveryRecord) {
	t.Helper()
	for r := range ref {
		if len(got[r]) < len(ref[r]) {
			t.Errorf("%s: rank %d consumed %d deliveries, fault-free run had %d",
				name, r, len(got[r]), len(ref[r]))
		}
		for step, want := range ref[r] {
			have, ok := got[r][step]
			if !ok {
				t.Fatalf("%s: rank %d step %d missing delivery (want %+v)", name, r, step, want)
			}
			if have != want {
				t.Fatalf("%s: rank %d step %d delivered %+v, fault-free run delivered %+v",
					name, r, step, have, want)
			}
		}
	}
}

func TestCrashRecoveryMatchesFaultFree(t *testing.T) {
	for _, tc := range []struct {
		stack, reducer string
		useEL          bool
	}{
		{StackVcausal, "vcausal", true},
		{StackVcausal, "vcausal", false},
		{StackVcausal, "manetho", true},
		{StackVcausal, "manetho", false},
		{StackVcausal, "logon", true},
		{StackVcausal, "logon", false},
		{StackPessimistic, "", true},
	} {
		name := fmt.Sprintf("%s/%s/el=%v", tc.stack, tc.reducer, tc.useEL)
		ref, _ := runWithCrash(t, tc.stack, tc.reducer, tc.useEL, 0)
		got, _ := runWithCrash(t, tc.stack, tc.reducer, tc.useEL, 40*sim.Millisecond)
		compareDeliveryLogs(t, name, ref, got)
	}
}

func TestCoordinatedRollbackCompletes(t *testing.T) {
	ref, refEnd := runWithCrash(t, StackCoordinated, "", false, 0)
	got, end := runWithCrash(t, StackCoordinated, "", false, 40*sim.Millisecond)
	compareDeliveryLogs(t, "coordinated", ref, got)
	if end <= refEnd {
		t.Fatalf("crashed run (%v) should take longer than fault-free (%v)", end, refEnd)
	}
}

func TestRecoveryTimersPopulated(t *testing.T) {
	_, _ = runWithCrash(t, StackVcausal, "vcausal", true, 40*sim.Millisecond)
	// Re-run keeping the cluster to inspect node 0 stats.
	const np = 4
	cfg := Config{
		NP: np, Stack: StackVcausal, Reducer: "vcausal", UseEL: true,
		CkptPolicy: checkpoint.PolicyRoundRobin, CkptInterval: 5 * sim.Millisecond,
		RestartDelay:  20 * sim.Millisecond,
		AppStateBytes: 64 << 10,
	}
	c := New(cfg)
	d := c.PrepareRun(ringPrograms(np, 120, 512))
	d.ScheduleFault(40*sim.Millisecond, 0)
	d.Launch()
	c.RunLaunched(30 * sim.Minute).MustCompleted()
	st := c.Nodes[0].Stats()
	if st.Recoveries != 1 {
		t.Fatalf("rank 0 recoveries = %d, want 1", st.Recoveries)
	}
	if st.RecoveryEventCollection <= 0 {
		t.Fatal("recovery event-collection timer not populated")
	}
	if st.RecoveryTotal <= st.RecoveryEventCollection {
		t.Fatalf("recovery total (%v) should exceed collection time (%v)",
			st.RecoveryTotal, st.RecoveryEventCollection)
	}
}

func TestMultipleFaultsMessageLogging(t *testing.T) {
	const np = 4
	cfg := Config{
		NP: np, Stack: StackVcausal, Reducer: "manetho", UseEL: true,
		CkptPolicy: checkpoint.PolicyRoundRobin, CkptInterval: 5 * sim.Millisecond,
		RecordDeliveries: true,
		RestartDelay:     15 * sim.Millisecond,
		AppStateBytes:    64 << 10,
	}
	c := New(cfg)
	d := c.PrepareRun(ringPrograms(np, 150, 256))
	d.ScheduleFault(30*sim.Millisecond, 0)
	d.ScheduleFault(70*sim.Millisecond, 2)
	d.ScheduleFault(110*sim.Millisecond, 0)
	d.Launch()
	c.RunLaunched(30 * sim.Minute).MustCompleted()
	if d.Kills < 2 {
		t.Fatalf("expected at least 2 kills, got %d", d.Kills)
	}
}

// TestGenGuardOverlappingKillsSameRank: a second fault on a rank inside
// its own restart window must supersede the pending respawn (gen guard)
// and still recover to a consistent execution.
func TestGenGuardOverlappingKillsSameRank(t *testing.T) {
	ref, _ := runWithCrash(t, StackVcausal, "vcausal", true, 0)
	const np = 4
	cfg := Config{
		NP: np, Stack: StackVcausal, Reducer: "vcausal", UseEL: true,
		CkptPolicy: checkpoint.PolicyRoundRobin, CkptInterval: 5 * sim.Millisecond,
		RecordDeliveries: true,
		RestartDelay:     20 * sim.Millisecond,
		AppStateBytes:    64 << 10,
	}
	c := New(cfg)
	d := c.PrepareRun(ringPrograms(np, 120, 512))
	d.ScheduleFault(40*sim.Millisecond, 0)
	d.ScheduleFault(48*sim.Millisecond, 0) // inside the 20ms restart window
	d.Launch()
	c.RunLaunched(30 * sim.Minute).MustCompleted()
	if d.Kills != 2 || d.Restarts != 1 {
		t.Fatalf("kills=%d restarts=%d, want 2 kills and exactly 1 respawn", d.Kills, d.Restarts)
	}
	logs := make([]map[int64]daemon.DeliveryRecord, np)
	for r := 0; r < np; r++ {
		logs[r] = c.Nodes[r].Deliveries
	}
	compareDeliveryLogs(t, "gen-guard", ref, logs)
}

// TestCoordinatedSecondFaultInsideRestartDelay: under rollback-all, a
// second fault landing before the first restart wave fires must cancel it
// (per-rank gen guard) and produce exactly one rollback wave.
func TestCoordinatedSecondFaultInsideRestartDelay(t *testing.T) {
	ref, _ := runWithCrash(t, StackCoordinated, "", false, 0)
	const np = 4
	cfg := Config{
		NP: np, Stack: StackCoordinated,
		CkptPolicy: checkpoint.PolicyCoordinated, CkptInterval: 10 * sim.Millisecond,
		RecordDeliveries: true,
		RestartDelay:     20 * sim.Millisecond,
		AppStateBytes:    64 << 10,
	}
	c := New(cfg)
	d := c.PrepareRun(ringPrograms(np, 120, 512))
	d.ScheduleFault(40*sim.Millisecond, 0)
	d.ScheduleFault(50*sim.Millisecond, 2) // inside the rollback's restart window
	d.Launch()
	c.RunLaunched(30 * sim.Minute).MustCompleted()
	if d.Kills != 2 {
		t.Fatalf("kills = %d, want 2", d.Kills)
	}
	if d.Restarts != np {
		t.Fatalf("restarts = %d, want %d (single rollback wave; first one superseded)", d.Restarts, np)
	}
	logs := make([]map[int64]daemon.DeliveryRecord, np)
	for r := 0; r < np; r++ {
		logs[r] = c.Nodes[r].Deliveries
	}
	compareDeliveryLogs(t, "coordinated-overlap", ref, logs)
}

// TestFaultDuringCheckpoint kills the rank that is inside its checkpoint
// transaction (store issued, ack pending): recovery must restore a
// consistent image — either the previous one or the one committed by the
// in-flight transaction.
func TestFaultDuringCheckpoint(t *testing.T) {
	ref, _ := runWithCrash(t, StackVcausal, "vcausal", true, 0)
	const np = 4
	cfg := Config{
		NP: np, Stack: StackVcausal, Reducer: "vcausal", UseEL: true,
		CkptPolicy: checkpoint.PolicyRoundRobin, CkptInterval: 5 * sim.Millisecond,
		RecordDeliveries: true,
		RestartDelay:     20 * sim.Millisecond,
		AppStateBytes:    1 << 20, // ~30ms store: the fault lands mid-transaction
	}
	c := New(cfg)
	d := c.PrepareRun(ringPrograms(np, 120, 512))
	// Wave 1 at 5ms requests rank 0; the 1 MB store takes ~30ms, so a kill
	// at 15ms lands while the transaction is in flight.
	d.ScheduleFault(15*sim.Millisecond, 0)
	d.Launch()
	c.RunLaunched(30 * sim.Minute).MustCompleted()
	if c.Nodes[0].Stats().Recoveries != 1 {
		t.Fatalf("rank 0 recoveries = %d, want 1", c.Nodes[0].Stats().Recoveries)
	}
	logs := make([]map[int64]daemon.DeliveryRecord, np)
	for r := 0; r < np; r++ {
		logs[r] = c.Nodes[r].Deliveries
	}
	compareDeliveryLogs(t, "fault-mid-checkpoint", ref, logs)
}
