package cluster

import (
	"testing"

	"mpichv/internal/daemon"
	"mpichv/internal/event"
	"mpichv/internal/failure"
	"mpichv/internal/sim"
	"mpichv/internal/trace"
	"mpichv/internal/vproto"
)

// sleeps counts the kernel's Sleeps that charged time: those that parked
// and those that ended in place. Every other park is a wait, which the
// program below never makes where a charge is measured. The counts are
// the kernel's, so a charge is measured while the other rank waits.
func sleeps(k *sim.Kernel) int {
	c := k.Counts()
	return c.Parks + c.InPlaceSleeps
}

// chargeCounter wraps a node's protocol and records the sleeps of each
// send from PreSend on (PreSend's own, then Send's charge) and of each
// delivery with its Event Logger ship.
type chargeCounter struct {
	daemon.Protocol
	k            *sim.Kernel
	sendStart    int   // sleeps when the current send's PreSend began
	pre, deliver []int // sleeps inside each PreSend and each OnDeliver
}

func (c *chargeCounter) PreSend(n *daemon.Node, m *vproto.Message) sim.Time {
	c.sendStart = sleeps(c.k)
	cpu := c.Protocol.PreSend(n, m)
	c.pre = append(c.pre, sleeps(c.k)-c.sendStart)
	return cpu
}

func (c *chargeCounter) OnDeliver(n *daemon.Node, m *vproto.Message) {
	before := sleeps(c.k)
	c.Protocol.OnDeliver(n, m)
	c.deliver = append(c.deliver, sleeps(c.k)-before)
}

// TestOneChargePerSendAndDelivery: on the two stacks that ship to the
// Event Logger, a send charges its protocol and transmit costs as one
// sleep, and a fresh delivery charges its determinant and the ship as
// one, while the protocol accounting keeps the values the separate charges
// gave (pinned when the charges were fused).
func TestOneChargePerSendAndDelivery(t *testing.T) {
	const np, iters = 2, 30
	for _, tc := range []struct {
		cfg  Config
		want trace.Stats
	}{
		{Config{NP: np, Stack: StackVcausal, Reducer: "vcausal", UseEL: true}, trace.Stats{
			SendPiggybackTime: 18000, RecvPiggybackTime: 249000, EventsLogged: 60, MaxHeldDeterminants: 1,
		}},
		{Config{NP: np, Stack: StackPessimistic}, trace.Stats{EventsLogged: 60}},
	} {
		name := tc.cfg.Stack + "/" + tc.cfg.Reducer
		c := New(tc.cfg)
		counters := make([]*chargeCounter, np)
		for i, n := range c.Nodes {
			counters[i] = &chargeCounter{Protocol: n.Proto, k: c.K}
			n.Proto = counters[i]
		}
		// A ping-pong: one rank charges while the other waits in Recv,
		// and computes long enough for the Event Logger's acks to land
		// before it sends, so the pessimistic PreSend never waits.
		var sends []int
		progs := make([]failure.Program, np)
		for r := range progs {
			cc := counters[r]
			progs[r] = func(n *daemon.Node) {
				peer := event.Rank(1 - r)
				for it := 0; it < iters; it++ {
					if r == 1 {
						n.Recv(peer, 0)
					}
					n.Compute(sim.Millisecond)
					n.Send(peer, 0, 4096)
					sends = append(sends, sleeps(c.K)-cc.sendStart)
					if r == 0 {
						n.Recv(peer, 0)
					}
				}
			}
		}
		c.Run(progs, 10*sim.Minute).MustCompleted()
		c.Close()

		for _, cc := range counters {
			for _, s := range cc.pre {
				if s != 0 {
					t.Fatalf("%s: a PreSend slept %d times, want 0 (its cost is Send's to charge)", name, s)
				}
			}
			for _, s := range cc.deliver {
				if s != 1 {
					t.Fatalf("%s: a delivery and its ship slept %d times, want 1", name, s)
				}
			}
		}
		for _, s := range sends {
			if s != 1 {
				t.Fatalf("%s: a send slept %d times, want 1", name, s)
			}
		}
		if len(sends) != np*iters {
			t.Fatalf("%s: %d sends measured, want %d", name, len(sends), np*iters)
		}
		got := c.AggregateStats()
		t.Logf("%s: send piggyback %d ns, recv piggyback %d ns, %d events logged, %d held at most",
			name, got.SendPiggybackTime, got.RecvPiggybackTime, got.EventsLogged, got.MaxHeldDeterminants)
		if got.SendPiggybackTime != tc.want.SendPiggybackTime || got.RecvPiggybackTime != tc.want.RecvPiggybackTime ||
			got.EventsLogged != tc.want.EventsLogged || got.MaxHeldDeterminants != tc.want.MaxHeldDeterminants {
			t.Errorf("%s: accounting moved: got send %d, recv %d, logged %d, held %d; want %d, %d, %d, %d", name,
				got.SendPiggybackTime, got.RecvPiggybackTime, got.EventsLogged, got.MaxHeldDeterminants,
				tc.want.SendPiggybackTime, tc.want.RecvPiggybackTime, tc.want.EventsLogged, tc.want.MaxHeldDeterminants)
		}
	}
}
