package main

import (
	"time"

	"mpichv/internal/causal"
	"mpichv/internal/causal/sparsevec"
	"mpichv/internal/checkpoint"
	"mpichv/internal/cluster"
	"mpichv/internal/daemon"
	"mpichv/internal/event"
	"mpichv/internal/eventlogger"
	"mpichv/internal/failure"
	"mpichv/internal/harness"
	"mpichv/internal/netmodel"
	"mpichv/internal/sim"
	"mpichv/internal/vproto"
	"mpichv/internal/workload"
)

// Unit costs: one micro-driver per layer, over the layer's public API, each
// reporting host nanoseconds per operation. They are workload-independent;
// the cost model multiplies them by each workload's exact counts.

// unitDriver runs n operations and returns the host time they took. Set-up
// a driver needs may be timed along when it is amortized over n.
type unitDriver func(n int) time.Duration

// measure grows n until one run lasts long enough to time, runs that n twice
// more, and reports the median run's ns per operation.
func measure(fn unitDriver, target time.Duration) float64 {
	n := 1
	for {
		d := fn(n)
		if d >= target || n >= 1<<28 {
			runs := []float64{float64(d), float64(fn(n)), float64(fn(n))}
			return median(runs) / float64(n)
		}
		grow := 100.0
		if d > 0 {
			grow = 1.2 * float64(target) / float64(d)
		}
		n = int(float64(n)*min(max(grow, 2), 100)) + 1
	}
}

// unit is one unit cost: its per-layer metric name and its driver.
type unit struct {
	name string
	run  unitDriver
}

// unitTable lists every unit cost, in print order.
func unitTable() []unit {
	units := []unit{
		{"host.calib_ns", unitCalib},
		{"sim.event_ns", unitEvent},
		{"sim.switch_ns", unitSwitch},
		{"sim.mailbox_ns", unitMailbox},
		{"netmodel.send_ns", unitNetSend},
		{"event.enc_factored_ns", unitEncode(event.AppendFactored)},
		{"event.enc_flat_ns", unitEncode(event.AppendFlat)},
	}
	for _, k := range []struct {
		kind   string
		driver func(reducer string) unitDriver
	}{{"emit_ns", unitEmit}, {"merge_ns_per_det", unitMerge}, {"stable_ns", unitStable}} {
		for _, r := range reducers {
			units = append(units, unit{"causal." + r + "." + k.kind, k.driver(r)})
		}
	}
	return append(units,
		unit{"eventlogger.log_ack_ns", unitELLogAck},
		unit{"daemon.msg_ns", unitPingPong(cluster.Config{NP: 2, Stack: cluster.StackVdummy})},
		unit{"daemon.msg_causal_el_ns", unitPingPong(cluster.Config{NP: 2, Stack: cluster.StackVcausal, Reducer: "manetho", UseEL: true})},
		unit{"daemon.compute_poll_ns", unitComputePoll},
		unit{"daemon.replay_serve_ns", unitReplayServe},
		unit{"checkpoint.store_ns", unitCkptStore})
}

// runUnits measures every unit cost, keyed by per-layer metric name.
func runUnits(quick bool) map[string]float64 {
	target := 25 * time.Millisecond
	if quick {
		target = time.Millisecond
	}
	out := make(map[string]float64)
	for _, u := range unitTable() {
		out[u.name] = measure(u.run, target)
	}
	return out
}

var calibSink uint64

// unitCalib is a fixed integer spin (1024 LCG steps per operation): it
// measures the host and nothing of the repository, so a run whose calib
// differs from the baseline's was taken on a noisier or different machine.
func unitCalib(n int) time.Duration {
	start := time.Now()
	acc := uint64(1)
	for i := 0; i < n; i++ {
		for j := 0; j < 1024; j++ {
			acc = acc*6364136223846793005 + 1442695040888963407
		}
	}
	calibSink = acc
	return time.Since(start)
}

// unitEvent: one schedule + pop + execute of the event heap.
func unitEvent(n int) time.Duration {
	k := sim.NewKernel(1)
	nop := func() {}
	start := time.Now()
	var t sim.Time
	for i := 0; i < n; i++ {
		t += 10
		k.At(t, nop)
		if i%1024 == 1023 {
			k.Run()
		}
	}
	k.Run()
	return time.Since(start)
}

// unitSwitch: one Proc.Sleep — a timer event plus the park/resume handoff
// through the kernel goroutine, the unit cost of every ChargeCPU.
func unitSwitch(n int) time.Duration {
	k := sim.NewKernel(1)
	k.Spawn("sleeper", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(10)
		}
	})
	start := time.Now()
	k.Run()
	return time.Since(start)
}

// unitMailbox: one blocking producer/consumer cycle — the daemon inbox path.
func unitMailbox(n int) time.Duration {
	k := sim.NewKernel(1)
	mb := sim.NewMailbox[int](k)
	k.Spawn("producer", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			mb.Put(i)
			p.Yield()
		}
	})
	k.Spawn("consumer", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			mb.Get(p)
		}
	})
	start := time.Now()
	k.Run()
	return time.Since(start)
}

// unitNetSend: one wire transmission (occupancy accounting, delivery event,
// handler dispatch).
func unitNetSend(n int) time.Duration {
	k := sim.NewKernel(1)
	net := netmodel.New(k, netmodel.FastEthernet(), 2)
	net.Endpoint(1).SetHandler(func(netmodel.Delivery) {})
	tx := net.Endpoint(0)
	start := time.Now()
	for i := 0; i < n; i++ {
		tx.Send(1, 1024, nil)
		if i%1024 == 1023 {
			k.Run()
		}
	}
	k.Run()
	return time.Since(start)
}

// chain returns count consecutive determinants of one creator starting at
// clock from, each delivered from the next rank and parented on that rank's
// event of the same clock — the shape NAS neighbour exchanges produce.
func chain(creator event.Rank, np int, from uint64, count int) []event.Determinant {
	sender := event.Rank((int(creator) + 1) % np)
	ds := make([]event.Determinant, count)
	for i := range ds {
		k := from + uint64(i)
		ds[i] = event.Determinant{
			ID:     event.EventID{Creator: creator, Clock: k},
			Sender: sender, SendSeq: k,
			Parent:  event.EventID{Creator: sender, Clock: k},
			Lamport: 2 * k,
		}
	}
	return ds
}

// unitEncode: encoding a 64-determinant piggyback (4 creator chains of 16).
func unitEncode(enc func([]byte, []event.Determinant) []byte) unitDriver {
	return func(n int) time.Duration {
		var ds []event.Determinant
		for c := event.Rank(1); c <= 4; c++ {
			ds = append(ds, chain(c, 16, 1, 16)...)
		}
		buf := make([]byte, 0, event.FlatSize(ds))
		start := time.Now()
		for i := 0; i < n; i++ {
			buf = enc(buf[:0], ds)
		}
		return time.Since(start)
	}
}

const (
	unitNP       = 16
	unitCreators = unitNP - 1 // ranks 1..15 feed rank 0's reducer
)

// unitEmit: the steady-state send cycle as the daemon drives it — AddLocal
// of the reception determinant, then AppendPiggybackFor into a recycled
// buffer — on a reducer holding 64 determinants per peer.
func unitEmit(name string) unitDriver {
	return func(n int) time.Duration {
		r := causal.New(name, 0, unitNP)
		for c := 1; c <= unitCreators; c++ {
			r.Merge(event.Rank(c), chain(event.Rank(c), unitNP, 1, 64))
		}
		var buf []event.Determinant
		stable := sparsevec.New(unitNP)
		start := time.Now()
		for i := 0; i < n; i++ {
			clock := uint64(i + 1)
			r.AddLocal(event.Determinant{
				ID:     event.EventID{Creator: 0, Clock: clock},
				Sender: 1, SendSeq: clock, Lamport: clock,
			})
			buf, _ = r.AppendPiggybackFor(event.Rank(1+i%unitCreators), buf[:0])
			_ = r.PiggybackBytes(buf)
			if clock%64 == 0 {
				// An acknowledgment now and then keeps the held set steady.
				stable.SetMax(0, clock-64)
				r.Stable(stable)
			}
		}
		return time.Since(start)
	}
}

// unitMerge: Merge of a 32-determinant piggyback into a reducer holding
// about 1,000 determinants — the no-Event-Logger receive path. One
// operation is one determinant. Between timed blocks of eight merges an
// untimed Stable prunes the reducer back to its steady size.
func unitMerge(name string) unitDriver {
	const piggyback, block = 32, 8
	return func(n int) time.Duration {
		r := causal.New(name, 0, unitNP)
		next := make([]uint64, unitNP) // next clock to merge, per creator
		for c := 1; c <= unitCreators; c++ {
			r.Merge(event.Rank(c), chain(event.Rank(c), unitNP, 1, 64))
			next[c] = 65
		}
		stable := sparsevec.New(unitNP)
		var total time.Duration
		done := 0
		for round := 0; done < n; round++ {
			batches := make([][]event.Determinant, block)
			for b := range batches {
				c := 1 + (round*block+b)%unitCreators
				batches[b] = chain(event.Rank(c), unitNP, next[c], piggyback)
				next[c] += piggyback
			}
			start := time.Now()
			for _, ds := range batches {
				r.Merge(ds[0].ID.Creator, ds)
			}
			total += time.Since(start)
			done += block * piggyback
			for c := 1; c <= unitCreators; c++ {
				stable.SetMax(c, next[c]-65)
			}
			r.Stable(stable)
		}
		return total * time.Duration(n) / time.Duration(done)
	}
}

// unitStable: applying one Event Logger acknowledgment that makes the
// process's latest reception determinant stable — the prune every message
// pays when the Event Logger keeps up. The AddLocal calls that create the
// determinants are untimed.
func unitStable(name string) unitDriver {
	const block = 64
	return func(n int) time.Duration {
		r := causal.New(name, 0, unitNP)
		stable := sparsevec.New(unitNP)
		var total time.Duration
		for clock := uint64(0); clock < uint64(n); {
			base := clock
			for j := 0; j < block; j++ {
				clock++
				r.AddLocal(event.Determinant{
					ID:     event.EventID{Creator: 0, Clock: clock},
					Sender: 1, SendSeq: clock, Lamport: clock,
				})
			}
			start := time.Now()
			for j := uint64(1); j <= block; j++ {
				stable.SetMax(0, base+j)
				r.Stable(stable)
			}
			total += time.Since(start)
		}
		return total * time.Duration(n) / time.Duration((n+block-1)/block*block)
	}
}

// unitELLogAck: one determinant shipped to the Event Logger and acknowledged
// — the server's select loop, its store, and both wire crossings.
func unitELLogAck(n int) time.Duration {
	k := sim.NewKernel(1)
	net := netmodel.New(k, netmodel.FastEthernet(), 2)
	eventlogger.New(k, net, 1, 1, eventlogger.DefaultConfig())
	client := net.Endpoint(0)
	clock := uint64(0)
	ship := func() {
		clock++
		pkt := vproto.GetPacket()
		pkt.Kind = vproto.PktEventLog
		pkt.From = 0
		pkt.SetDeterminant(event.Determinant{
			ID:     event.EventID{Creator: 0, Clock: clock},
			Sender: 0, SendSeq: clock, Lamport: clock,
		})
		client.Send(1, 48, pkt)
	}
	client.SetHandler(func(d netmodel.Delivery) {
		vproto.PutPacket(d.Payload.(*vproto.Packet))
		if clock == uint64(n) {
			k.Stop()
			return
		}
		ship()
	})
	start := time.Now()
	k.At(0, ship)
	k.Run()
	return time.Since(start)
}

// unitPingPong: one one-way application message through the whole stack on
// the given deployment (a NetPIPE ping-pong of 1 KB payloads), cluster
// set-up amortized over the run.
func unitPingPong(cfg cluster.Config) unitDriver {
	return func(n int) time.Duration {
		reps := (n + 1) / 2
		start := time.Now()
		in := workload.BuildPingPong(1024, reps)
		cluster.New(cfg).Run(in.Programs, harness.DefaultMaxVirtual).MustCompleted()
		return time.Since(start) * time.Duration(n) / time.Duration(2*reps)
	}
}

// unitComputePoll: host time per virtual millisecond of Node.Compute, which
// wakes every 500 µs of virtual time to poll its inbox.
func unitComputePoll(n int) time.Duration {
	start := time.Now()
	c := cluster.New(cluster.Config{NP: 1, Stack: cluster.StackVdummy})
	c.Run([]failure.Program{func(node *daemon.Node) {
		node.Compute(sim.Time(n) * sim.Millisecond)
	}}, harness.DefaultMaxVirtual).MustCompleted()
	return time.Since(start)
}

// unitReplayServe: one logged payload re-served to a recovering peer. A
// request replays the serving daemon's 64-entry sender log; one operation
// is one re-sent payload.
func unitReplayServe(n int) time.Duration {
	const entries = 64
	c := cluster.New(cluster.Config{NP: 2, Stack: cluster.StackVcausal, Reducer: "vcausal"})
	k, server, peer := c.K, c.Nodes[0], c.Net.Endpoint(1)
	for s := 1; s <= entries; s++ {
		server.Log.Append(vproto.Message{Src: 0, Dst: 1, Tag: 1, Bytes: 1024, SendSeq: uint64(s)})
	}
	k.Spawn("server", func(p *sim.Proc) {
		server.Bind(p)
		for {
			server.WaitPacket()
		}
	})
	request := func() {
		req := vproto.GetPacket()
		req.Kind = vproto.PktDetRequest
		req.From = 1
		req.Creator = 1
		peer.Send(0, 32, req)
	}
	got := 0
	peer.SetHandler(func(d netmodel.Delivery) {
		pkt := d.Payload.(*vproto.Packet)
		if pkt.Kind == vproto.PktApp {
			got++
			switch {
			case got >= n:
				k.Stop()
			case got%entries == 0:
				request()
			}
		}
		vproto.PutPacket(pkt)
	})
	start := time.Now()
	k.At(0, request)
	k.Run()
	return time.Since(start)
}

// unitCkptStore: one checkpoint image stored and acknowledged by the
// checkpoint server (a 1 MB image; the transfer is virtual time, so the
// host cost is the transaction's bookkeeping).
func unitCkptStore(n int) time.Duration {
	k := sim.NewKernel(1)
	net := netmodel.New(k, netmodel.FastEthernet(), 2)
	checkpoint.NewServer(k, net, 1, 1, checkpoint.DefaultServerConfig())
	client := net.Endpoint(0)
	epoch := 0
	store := func() {
		epoch++
		pkt := vproto.GetPacket()
		pkt.Kind = vproto.PktCkptStore
		pkt.From = 0
		pkt.Image = &vproto.CheckpointImage{Rank: 0, Epoch: epoch, AppBytes: 1 << 20}
		client.Send(1, 1<<20, pkt)
	}
	client.SetHandler(func(d netmodel.Delivery) {
		vproto.PutPacket(d.Payload.(*vproto.Packet))
		if epoch == n {
			k.Stop()
			return
		}
		store()
	})
	start := time.Now()
	k.At(0, store)
	k.Run()
	return time.Since(start)
}
