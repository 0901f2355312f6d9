package bench

import (
	"testing"

	"mpichv/internal/causal"
	"mpichv/internal/checkpoint"
	"mpichv/internal/cluster"
	"mpichv/internal/daemon"
	"mpichv/internal/event"
	"mpichv/internal/faultplan"
	"mpichv/internal/harness"
	"mpichv/internal/netmodel"
	"mpichv/internal/protocols"
	"mpichv/internal/sim"
	"mpichv/internal/vproto"
	"mpichv/internal/workload"
)

// Suite returns the curated benchmark set: name → body. Micro benchmarks
// cover the allocation-free hot path layer by layer (kernel event queue,
// process scheduling, mailboxes, wire sends, the three piggyback reducers,
// the determinant codecs); macro benchmarks run one full simulation cell
// per protocol stack plus a small Figure-7-style sweep through the
// harness. The calibration spin (CalibName) anchors cross-machine ns/op
// normalization.
func Suite() map[string]func(b *testing.B) {
	return map[string]func(b *testing.B){
		CalibName:             benchCalibSpin,
		"kernel/schedule-pop": benchKernelSchedulePop,
		"kernel/proc-sleep":   benchProcSleep,
		"sim/mailbox":         benchMailbox,
		"net/send":            benchNetSend,
		"reducer/vcausal":     reducerBench("vcausal"),
		"reducer/manetho":     reducerBench("manetho"),
		"reducer/logon":       reducerBench("logon"),
		// The -np256 variants run the same steady-state cycle in a 256-rank
		// world with 15 active creators: cost must track the active set, not
		// the world size (interval-coded sparse state).
		"reducer/vcausal-np256": reducerBenchAt("vcausal", 256, 15),
		"reducer/manetho-np256": reducerBenchAt("manetho", 256, 15),
		"reducer/logon-np256":   reducerBenchAt("logon", 256, 15),
		"vproto/enc-factored":   benchEncodeFactored,
		"vproto/enc-flat":       benchEncodeFlat,
		"daemon/replay-serve":   benchReplayServe,
		"cell/vdummy":           cellBench(cluster.Config{NP: 4, Stack: cluster.StackVdummy}, 1),
		"cell/pessimistic":      cellBench(cluster.Config{NP: 4, Stack: cluster.StackPessimistic}, 1),
		"cell/vcausal-el":       cellBench(cluster.Config{NP: 4, Stack: cluster.StackVcausal, Reducer: "manetho", UseEL: true}, 1),
		// NP scaling gates: both cells run the same total message volume
		// (iterations scale inversely with NP), so allocs/op at NP 64 must
		// stay within 2x of NP 16 — world size must not leak into the
		// per-message allocation profile (sparse causality state).
		"cell/vcausal-el-np16": cellBench(cluster.Config{NP: 16, Stack: cluster.StackVcausal, Reducer: "manetho", UseEL: true}, 4),
		"cell/vcausal-el-np64": cellBench(cluster.Config{NP: 64, Stack: cluster.StackVcausal, Reducer: "manetho", UseEL: true}, 1),
		"cell/coordinated":     cellBench(cluster.Config{NP: 4, Stack: cluster.StackCoordinated}, 1),
		"cell/storm-recovery":  benchStormRecovery,
		"sweep/fig7-small":     benchSweepFig7Small,
	}
}

// benchCalibSpin is a fixed integer workload; its ns/op measures host CPU
// speed and nothing else.
func benchCalibSpin(b *testing.B) {
	acc := uint64(1)
	for i := 0; i < b.N; i++ {
		for j := 0; j < 1024; j++ {
			acc = acc*6364136223846793005 + 1442695040888963407
		}
	}
	if acc == 0 {
		b.Fatal("unreachable")
	}
}

// benchKernelSchedulePop measures one schedule+execute cycle of the
// discrete-event core (the per-action cost of every simulated layer).
func benchKernelSchedulePop(b *testing.B) {
	k := sim.NewKernel(1)
	nop := func() {}
	var t sim.Time
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t += 10
		k.At(t, nop)
		if i%1024 == 1023 {
			k.Run()
		}
	}
	k.Run()
}

// benchProcSleep measures the park/unpark handshake: one timer event plus
// two coroutine switches per operation, the unit cost of ChargeCPU.
func benchProcSleep(b *testing.B) {
	k := sim.NewKernel(1)
	k.Spawn("sleeper", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(10)
		}
	})
	b.ResetTimer()
	k.Run()
}

// benchMailbox measures a blocking producer/consumer cycle through one
// mailbox — the daemon inbox path.
func benchMailbox(b *testing.B) {
	k := sim.NewKernel(1)
	mb := sim.NewMailbox[int](k)
	k.Spawn("producer", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			mb.Put(i)
			p.Yield()
		}
	})
	k.Spawn("consumer", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			mb.Get(p)
		}
	})
	b.ResetTimer()
	k.Run()
}

// benchNetSend measures one wire transmission end to end (occupancy
// accounting, delivery event, handler dispatch).
func benchNetSend(b *testing.B) {
	k := sim.NewKernel(1)
	net := netmodel.New(k, netmodel.FastEthernet(), 2)
	net.Endpoint(1).SetHandler(func(netmodel.Delivery) {})
	tx := net.Endpoint(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx.Send(1, 1024, nil)
		if i%1024 == 1023 {
			k.Run()
		}
	}
	k.Run()
}

// reducerBench measures the steady-state piggyback cycle of one causal
// reducer exactly as the daemon drives it: merge-free AddLocal, then an
// emission into a recycled buffer.
func reducerBench(name string) func(b *testing.B) {
	return reducerBenchAt(name, 16, 15)
}

// reducerBenchAt is reducerBench in a world of np ranks with the given
// number of active creators (ranks 1..active); the remaining ranks never
// appear, so a sparse reducer's per-op cost must not grow with np.
func reducerBenchAt(name string, np, active int) func(b *testing.B) {
	return func(b *testing.B) {
		r := causal.New(name, 0, np)
		// Pre-populate with a realistic held set.
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
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			clock++
			r.AddLocal(event.Determinant{
				ID:     event.EventID{Creator: 0, Clock: clock},
				Sender: 1, SendSeq: clock, Lamport: clock,
			})
			buf, _ = r.AppendPiggybackFor(event.Rank(1+i%active), buf[:0])
			_ = r.PiggybackBytes(buf)
		}
	}
}

// codecSet builds a representative 64-determinant piggyback (4 creator
// chains of 16) for the codec benchmarks.
func codecSet() []event.Determinant {
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
	return ds
}

func benchEncodeFactored(b *testing.B) {
	ds := codecSet()
	buf := make([]byte, 0, event.FactoredSize(ds))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = event.AppendFactored(buf[:0], ds)
	}
	_ = buf
}

func benchEncodeFlat(b *testing.B) {
	ds := codecSet()
	buf := make([]byte, 0, event.FlatSize(ds))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = event.AppendFlat(buf[:0], ds)
	}
	_ = buf
}

// benchReplayServe measures one full sender-log replay service: a peer's
// recovery requests the 64-payload replay set and the serving daemon
// re-transmits it. This is the recovery-path hot spot the batched replay
// chain targets — the sequential path paid one blocking sleep (a kernel
// timer plus two coroutine switches) per logged payload; the chain pays
// one park for the whole set.
func benchReplayServe(b *testing.B) {
	k := sim.NewKernel(1)
	defer k.Close() // the server never returns
	net := netmodel.New(k, netmodel.FastEthernet(), 2)
	n := daemon.NewNode(k, net, 0, 2, daemon.Vdaemon(), daemon.DefaultCalibration(),
		protocols.NewVcausal("vcausal", 0, 2, false))
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
	remaining := b.N
	got := 0
	net.Endpoint(1).SetHandler(func(d netmodel.Delivery) {
		pkt := d.Payload.(*vproto.Packet)
		if pkt.Kind == vproto.PktApp {
			got++
			if got == entries {
				got = 0
				remaining--
				if remaining == 0 {
					k.Stop()
				} else {
					request()
				}
			}
		}
		vproto.PutPacket(pkt)
	})
	b.ResetTimer()
	k.At(0, func() { request() })
	k.Run()
}

// cellBench runs one complete CG.A.4 simulation per iteration on the given
// deployment — the macro cost of a sweep cell on that protocol stack. One
// untimed warmup run fills the packet pools and lazy globals first: these
// cells feed the zero-slack allocs/op equality gate, and a one-time fill
// amortized over the iteration count would otherwise flip the reported
// per-op allocs by ±1 between runs.
func cellBench(cfg cluster.Config, iterScale int) func(b *testing.B) {
	return func(b *testing.B) {
		runCell := func() {
			in := workload.Build(workload.Spec{Bench: "cg", Class: "A", NP: cfg.NP, IterScale: iterScale})
			c := cluster.New(cfg)
			defer c.Close()
			c.Run(in.Programs, harness.DefaultMaxVirtual).MustCompleted()
		}
		runCell()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runCell()
		}
	}
}

// benchStormRecovery runs one CG.A.4 cell through two correlated
// multi-rank kills — four overlapping recoveries per iteration. It is the
// macro benchmark of the recovery path: checkpoint restores, determinant
// collection across concurrently restarting peers, replay-set assembly and
// sender-log replay service (SenderLog.For), the paths the
// recovery-allocation work targets.
func benchStormRecovery(b *testing.B) {
	plan := &faultplan.Plan{
		Correlated: []faultplan.CorrelatedKill{
			{At: 100 * sim.Millisecond, Ranks: []int{0, 1}},
			{At: 400 * sim.Millisecond, Ranks: []int{2, 3}},
		},
	}
	cfg := cluster.Config{
		NP: 4, Stack: cluster.StackVcausal, Reducer: "manetho", UseEL: true,
		CkptPolicy: checkpoint.PolicyRoundRobin, CkptInterval: 20 * sim.Millisecond,
		RestartDelay:  20 * sim.Millisecond,
		AppStateBytes: 256 << 10,
		Faults:        plan,
	}
	for i := 0; i < b.N; i++ {
		in := workload.Build(workload.Spec{Bench: "cg", Class: "A", NP: cfg.NP})
		c := cluster.New(cfg)
		c.Run(in.Programs, harness.DefaultMaxVirtual).MustCompleted()
		c.Close()
	}
}

// benchSweepFig7Small runs a 2×3 Figure-7-style piggyback sweep (two NAS
// workloads, the three reducers without Event Logger) through the parallel
// harness per iteration.
func benchSweepFig7Small(b *testing.B) {
	spec := &harness.SweepSpec{
		Name: "bench-fig7-small",
		Workloads: []harness.Workload{
			{Key: "cg.A.2", Spec: workload.Spec{Bench: "cg", Class: "A", NP: 2}},
			{Key: "lu.A.2", Spec: workload.Spec{Bench: "lu", Class: "A", NP: 2}},
		},
		Stacks: []harness.Stack{
			{Key: "vcausal", Stack: cluster.StackVcausal, Reducer: "vcausal"},
			{Key: "manetho", Stack: cluster.StackVcausal, Reducer: "manetho"},
			{Key: "logon", Stack: cluster.StackVcausal, Reducer: "logon"},
		},
	}
	for i := 0; i < b.N; i++ {
		res := harness.Run(spec, harness.Options{Parallel: 2})
		for j := range res.Cells {
			if res.Cells[j].Err != "" || !res.Cells[j].Completed {
				b.Fatalf("cell %q failed: %s", res.Cells[j].ID, res.Cells[j].Err)
			}
		}
	}
}
