package mpichv_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"mpichv/internal/causal"
	"mpichv/internal/checkpoint"
	"mpichv/internal/cluster"
	"mpichv/internal/daemon"
	"mpichv/internal/event"
	"mpichv/internal/faultplan"
	"mpichv/internal/harness"
	"mpichv/internal/netmodel"
	"mpichv/internal/obs"
	"mpichv/internal/protocols"
	"mpichv/internal/sim"
	"mpichv/internal/vproto"
	"mpichv/internal/workload"
)

// TestHotPathAllocations is the repository's one runtime allocation gate
// and the runtime counterpart of the lint's noalloc check
// (TestInvariantLintSuite): the lint proves from the source that
// //mpichv:noalloc functions contain and reach, along static calls, no
// allocating construct and no dynamic dispatch; this test proves by
// measurement that the steady state of every hot-path layer allocates
// at most a handful of objects per measured section and that a whole
// simulation cell stays under a ceiling of heap objects per application
// message. It is the only guard that sees what
// the compiler decides — a value boxed into an interface, a parameter
// moved to the heap — so every //mpichv:noalloc function is executed by
// some row (CHANGES.md, PR 24, lists which): annotating a new root means
// driving it from a row here. Timing is not its business: "did this PR
// make it slower" is answered by `bash benchmark/run.sh` alone.
//
// Every number it asserts is in one of the two tables below; raising one
// is a reviewed edit of this file.
//
// Skipped in -short: the race runtime allocates on instrumented accesses,
// and the race CI job runs -short.
func TestHotPathAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts mean nothing under the race runtime, and the race job runs -short (covered by the full run)")
	}

	// The counter must see an allocation when there is one, or every row
	// below could pass vacuously.
	t.Run("checker/one-per-op", func(t *testing.T) {
		mallocs, ops := countMallocs(t, func(*testing.T) func() uint64 {
			return func() uint64 {
				for i := 0; i < microOps; i++ {
					allocSink = new(int)
				}
				return microOps
			}
		})
		if mallocs/ops != 1 {
			t.Errorf("a body allocating once per op: %d mallocs counted in %d ops", mallocs, ops)
		}
	})

	// Steady state, layer by layer: a ceiling on the heap objects the
	// whole measured section allocates. A body that retains what it is
	// given (a reducer keeps every determinant) refills a slab or doubles
	// a slice now and then, which the lint knows as //mpichv:amortized;
	// the ceilings sit a little above those counts (0 for most rows, 3
	// for the reducers, 21 for obs/recorder, 4 per replay service). They
	// count objects, not whole objects per op, so a map that grows on
	// every op (132 objects in 16,384 reducer ops) does not round to 0.
	// setup builds the state, runs the body once so that pools and queues
	// have their working size, and returns the measured section, which
	// reports how many operations it performed.
	steady := []struct {
		name    string
		setup   func(t *testing.T) (measured func() (ops uint64))
		mallocs uint64
	}{
		{"kernel/schedule-run", setupKernelScheduleRun, 16},
		{"kernel/proc-sleep", setupProcSleep, 16},
		{"kernel/proc-poll", setupProcPoll, 16},
		{"sim/mailbox", setupMailbox, 16},
		{"net/send", setupNetSend, 16},
		{"reducer/vcausal-np16", setupReducer("vcausal", 16), 16},
		{"reducer/manetho-np16", setupReducer("manetho", 16), 16},
		{"reducer/logon-np16", setupReducer("logon", 16), 16},
		// The same cycle in a 256-rank world with the same 15 active
		// creators: cost tracks the active set, not the world size.
		{"reducer/vcausal-np256", setupReducer("vcausal", 256), 16},
		{"reducer/manetho-np256", setupReducer("manetho", 256), 16},
		{"reducer/logon-np256", setupReducer("logon", 256), 16},
		{"event/enc-factored", setupEncoder(event.FactoredSize, event.AppendFactored), 16},
		{"event/enc-flat", setupEncoder(event.FlatSize, event.AppendFlat), 16},
		// One op is a whole 64-payload sender-log replay service; the
		// section runs 256 of them at 4 objects each.
		{"daemon/replay-serve", setupReplayServe, 4*256 + 16},
		{"obs/latency-hist", setupLatencyHist, 16},
		{"obs/recorder", setupRecorder, 32},
	}
	for _, row := range steady {
		t.Run(row.name, func(t *testing.T) {
			mallocs, ops := countMallocs(t, row.setup)
			t.Logf("%d mallocs in %d ops", mallocs, ops)
			if mallocs > row.mallocs {
				t.Errorf("%s: %d mallocs in %d ops, want at most %d", row.name, mallocs, ops, row.mallocs)
			}
		})
	}

	// Whole cells: heap objects per application message sent, counting
	// everything a cell costs (workload build, cluster construction, the
	// run). perMsg is the value measured when the row was written plus
	// 2 %, against a run-to-run spread of 0.3 % (map seeds move the
	// NP-16/64 cells by a few tens of objects in 47,000).
	const np16, np64 = "cell/vcausal-el-np16", "cell/vcausal-el-np64"
	manethoEL := func(np int) cluster.Config {
		return cluster.Config{NP: np, Stack: cluster.StackVcausal, Reducer: "manetho", UseEL: true}
	}
	noEL := func(reducer string) cluster.Config {
		cfg := manethoEL(16)
		cfg.Reducer, cfg.UseEL = reducer, false
		return cfg
	}
	vcausalEL := manethoEL(4)
	vcausalEL.Reducer = "vcausal"
	storm := manethoEL(4)
	storm.CkptPolicy, storm.CkptInterval = checkpoint.PolicyRoundRobin, 20*sim.Millisecond
	storm.RestartDelay = 20 * sim.Millisecond
	storm.AppStateBytes = 256 << 10
	storm.Faults = &faultplan.Plan{Correlated: []faultplan.CorrelatedKill{
		{At: 100 * sim.Millisecond, Ranks: []int{0, 1}},
		{At: 400 * sim.Millisecond, Ranks: []int{2, 3}},
	}}
	cells := []struct {
		name      string
		cfg       cluster.Config
		iterScale int
		perMsg    float64
	}{
		{"cell/vdummy", cluster.Config{NP: 4, Stack: cluster.StackVdummy}, 1, 1.111},           // 1.089
		{"cell/pessimistic", cluster.Config{NP: 4, Stack: cluster.StackPessimistic}, 1, 1.181}, // 1.157
		{"cell/coordinated", cluster.Config{NP: 4, Stack: cluster.StackCoordinated}, 1, 1.114}, // 1.092
		{"cell/vcausal-el", manethoEL(4), 1, 1.288},                                            // 1.262
		// The only cell on the vcausal reducer (the stack of that name runs
		// manetho above): its Merge and Stable run nowhere else here.
		{"cell/vcausal-reducer-el", vcausalEL, 1, 1.264}, // 1.240
		// Same message volume at both sizes: iterations scale inversely
		// with NP.
		{np16, manethoEL(16), 4, 1.085}, // 1.064
		{np64, manethoEL(64), 1, 1.418}, // 1.390
		// No Event Logger: nothing is ever collected, so every determinant
		// stays in the antecedence graph and gets a clock. 33.2 when each
		// held node carried a heap-allocated vector clock.
		{"cell/manetho-noel-np16", noEL("manetho"), 4, 1.232}, // 1.208
		{"cell/logon-noel-np16", noEL("logon"), 4, 1.232},     // 1.208
		// Two correlated two-rank kills, four overlapping recoveries:
		// checkpoint restores, determinant collection across restarting
		// peers, replay-set assembly, sender-log replay service.
		{"cell/storm-recovery", storm, 1, 45.29}, // 44.40
	}
	got := make(map[string]float64, len(cells))
	for _, row := range cells {
		t.Run(row.name, func(t *testing.T) {
			mallocs, msgs := countMallocs(t, setupCell(row.cfg, row.iterScale))
			got[row.name] = float64(mallocs) / float64(msgs)
			t.Logf("%d mallocs for %d messages", mallocs, msgs)
			if got[row.name] > row.perMsg {
				t.Errorf("%s: %.3f mallocs per application message (%d for %d), ceiling %v",
					row.name, got[row.name], mallocs, msgs, row.perMsg)
			}
		})
	}
	// World size must not leak into the per-message allocation profile.
	if got[np64] > 2*got[np16] {
		t.Errorf("%s: %.3f mallocs per message is more than twice %s's %.3f", np64, got[np64], np16, got[np16])
	}
}

// microOps is the operation count of one steady-state row's measured
// section.
const microOps = 1 << 14

// countMallocs runs setup and then the measured section it returns, and
// reports the heap objects the measured section allocated and the
// operations it performed. The collector is off from before setup until
// the count is read: a GC cycle empties the sync.Pool packet pools, and
// the refills would land on whichever row the collector interrupted.
func countMallocs(t *testing.T, setup func(*testing.T) func() uint64) (mallocs, ops uint64) {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	measured := setup(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ops = measured()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, ops
}

// allocSink keeps the checker row's allocation on the heap.
var allocSink *int

// setupKernelScheduleRun measures one schedule+execute cycle of the
// discrete-event core, the per-action cost of every simulated layer.
func setupKernelScheduleRun(*testing.T) func() uint64 {
	k := sim.NewKernel(1)
	nop := func() {}
	cycle := func() uint64 {
		for i := 0; i < microOps; i++ {
			k.At(k.Now()+sim.Time(i%1024), nop)
			if i%1024 == 1023 {
				k.Run()
			}
		}
		return microOps
	}
	cycle()
	return cycle
}

// spawnBatches spawns a process that performs microOps calls of op, parks,
// and repeats when unparked; it returns the function that runs one batch
// to completion. The process is unwound when the test ends.
func spawnBatches(t *testing.T, k *sim.Kernel, op func(p *sim.Proc, i int)) func() uint64 {
	proc := k.Spawn("batch", func(p *sim.Proc) {
		for {
			for i := 0; i < microOps; i++ {
				op(p, i)
			}
			p.Park()
		}
	})
	t.Cleanup(k.Close)
	k.Run()
	return func() uint64 {
		proc.Unpark()
		k.Run()
		return microOps
	}
}

// setupProcSleep measures a lone process's Sleep, the unit cost of
// ChargeCPU when its wake-up is the next event: it ends in place, with no
// timer event and no switch. The parked path (a timer event plus two
// coroutine switches) runs in kernel/proc-poll, where lane ticks are due
// first, and in every cell row.
func setupProcSleep(t *testing.T) func() uint64 {
	return spawnBatches(t, sim.NewKernel(1), func(p *sim.Proc, _ int) { p.Sleep(10) })
}

// setupProcPoll measures the compute-pacing poll as Node.Compute drives
// it: four processes on one grid, each in a long SleepPolled whose
// predicate stays false, so their ticks share the kernel's poll lane and
// are re-armed in place. A fifth process's Sleep wake-up lands on every
// other instant of the grid and sends those ticks through their check
// event instead. One op is one poll tick.
func setupProcPoll(t *testing.T) func() uint64 {
	const pollers, every = 4, 10
	const ticks = microOps / pollers
	k := sim.NewKernel(1)
	t.Cleanup(k.Close)
	never := func() bool { return false }
	var procs []*sim.Proc
	for i := 0; i < pollers; i++ {
		procs = append(procs, k.Spawn("poller", func(p *sim.Proc) {
			for {
				p.SleepPolled(ticks*every, every, never)
				p.Park()
			}
		}))
	}
	procs = append(procs, k.Spawn("sleeper", func(p *sim.Proc) {
		for {
			for i := 0; i < ticks/2; i++ {
				p.Sleep(2 * every)
			}
			p.Park()
		}
	}))
	k.Run()
	return func() uint64 {
		for _, p := range procs {
			p.Unpark()
		}
		k.Run()
		return microOps
	}
}

// setupMailbox measures a blocking producer/consumer cycle through one
// mailbox, the daemon inbox path.
func setupMailbox(t *testing.T) func() uint64 {
	k := sim.NewKernel(1)
	mb := sim.NewMailbox[int](k)
	k.Spawn("consumer", func(p *sim.Proc) {
		for {
			mb.Get(p)
		}
	})
	return spawnBatches(t, k, func(p *sim.Proc, i int) {
		mb.Put(i)
		p.Yield()
	})
}

// setupNetSend measures one wire transmission end to end: occupancy
// accounting, delivery event, handler dispatch.
func setupNetSend(*testing.T) func() uint64 {
	k := sim.NewKernel(1)
	net := netmodel.New(k, netmodel.FastEthernet(), 2)
	net.Endpoint(1).SetHandler(func(netmodel.Delivery) {})
	tx := net.Endpoint(0)
	cycle := func() uint64 {
		for i := 0; i < microOps; i++ {
			tx.Send(1, 1024, nil)
			if i%1024 == 1023 {
				k.Run()
			}
		}
		return microOps
	}
	cycle()
	return cycle
}

// setupReducer measures the steady-state piggyback cycle of one causal
// reducer as the daemon drives it — a merge-free AddLocal, then an
// emission into a recycled buffer — in a world of np ranks of which ranks
// 1..15 hold 64 determinants each.
func setupReducer(name string, np int) func(*testing.T) func() uint64 {
	const active = 15
	return func(t *testing.T) func() uint64 {
		r := causal.New(name, 0, np)
		for c := 1; c <= active; c++ {
			var ds []event.Determinant
			for k := uint64(1); k <= 64; k++ {
				ds = append(ds, event.Determinant{
					ID:      event.EventID{Creator: event.Rank(c), Clock: k},
					Sender:  event.Rank((c + 1) % np),
					SendSeq: k, Lamport: k,
				})
			}
			r.Merge(event.Rank(c), ds)
		}
		clock := uint64(0)
		var buf []event.Determinant
		cycle := func() uint64 {
			for i := 0; i < microOps; i++ {
				clock++
				r.AddLocal(event.Determinant{
					ID:     event.EventID{Creator: 0, Clock: clock},
					Sender: 1, SendSeq: clock, Lamport: clock,
				})
				buf, _ = r.AppendPiggybackFor(event.Rank(1+i%active), buf[:0])
				_ = r.PiggybackBytes(buf)
			}
			return microOps
		}
		cycle()
		return cycle
	}
}

// setupEncoder measures one determinant encoder on a representative
// 64-determinant piggyback (4 creator chains of 16) into a buffer of the
// size the encoder itself asks for.
func setupEncoder(size func([]event.Determinant) int, enc func([]byte, []event.Determinant) []byte) func(*testing.T) func() uint64 {
	return func(*testing.T) func() uint64 {
		var ds []event.Determinant
		for c := event.Rank(1); c <= 4; c++ {
			for k := uint64(1); k <= 16; k++ {
				ds = append(ds, event.Determinant{
					ID:      event.EventID{Creator: c, Clock: k},
					Sender:  c + 1,
					SendSeq: k,
					Parent:  event.EventID{Creator: c + 1, Clock: k},
					Lamport: 2 * k,
				})
			}
		}
		buf := make([]byte, 0, size(ds))
		return func() uint64 {
			for i := 0; i < microOps; i++ {
				buf = enc(buf[:0], ds)
			}
			return microOps
		}
	}
}

// setupReplayServe measures full sender-log replay services: a peer's
// recovery requests the 64-payload replay set and the serving daemon
// re-transmits it as one batched chain (one park for the whole set).
func setupReplayServe(t *testing.T) func() uint64 {
	k := sim.NewKernel(1)
	t.Cleanup(k.Close) // the server never returns
	net := netmodel.New(k, netmodel.FastEthernet(), 2)
	n := daemon.NewNode(k, net, 0, 2, daemon.Vdaemon(), protocols.NewVcausal("vcausal", 0, 2))
	const entries = 64
	for s := 1; s <= entries; s++ {
		n.Log.Append(vproto.Message{Src: 0, Dst: 1, Tag: 1, Bytes: 1024, SendSeq: uint64(s)})
	}
	k.Spawn("server", func(p *sim.Proc) {
		n.Bind(p)
		for {
			n.WaitPacket()
		}
	})
	request := func() {
		req := vproto.GetPacket()
		req.Kind = vproto.PktDetRequest
		req.From = 1
		req.Creator = 1
		net.Endpoint(1).Send(0, 32, req)
	}
	remaining, got := 0, 0
	net.Endpoint(1).SetHandler(func(d netmodel.Delivery) {
		pkt := d.Payload.(*vproto.Packet)
		if pkt.Kind == vproto.PktApp {
			got++
			if got == entries {
				got = 0
				if remaining--; remaining > 0 {
					request()
				}
			}
		}
		vproto.PutPacket(pkt)
	})
	serve := func() uint64 {
		const services = 256
		remaining = services
		request()
		k.Run()
		if remaining != 0 {
			t.Fatalf("replay service stalled with %d of %d services left", remaining, services)
		}
		return services
	}
	serve()
	return serve
}

// setupLatencyHist measures the service-latency histogram as the workload
// drives it: an Observe per response on the enabled and on the nil
// (disabled-layer) histogram, and the summary reads. Samples are spread
// over the buckets and too large for the runtime's small-integer boxes, so
// a sample that reached an interface would show.
func setupLatencyHist(*testing.T) func() uint64 {
	on, off := obs.NewLatencyHist(), (*obs.LatencyHist)(nil)
	return func() uint64 {
		for i := 0; i < microOps; i++ {
			v := sim.Time(i+1) * sim.Microsecond
			on.Observe(v)
			off.Observe(v)
			latencySink = on.Count() + off.Count() + int64(on.Quantile(0.99)+on.Max()+off.Quantile(0.99)+off.Max())
		}
		return microOps
	}
}

// latencySink keeps the histogram reads of setupLatencyHist live.
var latencySink int64

// setupRecorder measures timeline emission: the nil recorder every
// untraced run emits into (one branch per call), and an enabled one, whose
// event slice doubles a handful of times over the section — far below one
// object per op.
func setupRecorder(t *testing.T) func() uint64 {
	return func() uint64 {
		on, off := obs.NewRecorder(), (*obs.Recorder)(nil)
		for i := 0; i < microOps; i++ {
			on.Record(sim.Time(i), obs.KindKill, i%4, int64(i), "")
			off.Record(sim.Time(i), obs.KindKill, i%4, int64(i), "")
		}
		if !on.Enabled() || on.Len() != microOps || off.Enabled() || off.Len() != 0 {
			t.Errorf("enabled recorder holds %d events, nil recorder %d; want %d and 0", on.Len(), off.Len(), microOps)
		}
		return microOps
	}
}

// setupCell measures one complete CG.A simulation on the given deployment
// — workload build, cluster construction and the run — per application
// message sent.
func setupCell(cfg cluster.Config, iterScale int) func(*testing.T) func() uint64 {
	return func(*testing.T) func() uint64 {
		cell := func() uint64 {
			in := workload.Build(workload.Spec{Bench: "cg", Class: "A", NP: cfg.NP, IterScale: iterScale})
			c := cluster.New(cfg)
			defer c.Close()
			c.Run(in.Programs, harness.DefaultMaxVirtual).MustCompleted()
			return uint64(c.AggregateStats().AppMsgsSent)
		}
		cell()
		return cell
	}
}
