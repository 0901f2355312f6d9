package mpi

import (
	"testing"

	"mpichv/internal/causal/sparsevec"
	"mpichv/internal/daemon"
	"mpichv/internal/event"
	"mpichv/internal/netmodel"
	"mpichv/internal/sim"
	"mpichv/internal/vproto"
)

// passProto is the minimal protocol for MPI-layer tests.
type passProto struct{}

func (*passProto) PreSend(*daemon.Node, *vproto.Message) sim.Time { return 0 }
func (*passProto) OnDeliver(n *daemon.Node, m *vproto.Message) {
	n.CreateDeterminant(m)
}
func (*passProto) OnControl(*daemon.Node, *vproto.Packet)                      {}
func (*passProto) TakeSnapshot(*daemon.Node)                                   {}
func (*passProto) Snapshot(*daemon.Node, *vproto.CheckpointImage)              {}
func (*passProto) Restore(*daemon.Node, *vproto.CheckpointImage)               {}
func (*passProto) Integrate(*daemon.Node, []event.Determinant, *sparsevec.Vec) {}
func (*passProto) HeldFor(event.Rank) []event.Determinant                      { return nil }

// world spawns np communicators running body and returns after completion.
func world(t *testing.T, np int, body func(c *Comm)) []*daemon.Node {
	t.Helper()
	k := sim.NewKernel(1)
	net := netmodel.New(k, netmodel.FastEthernet(), np)
	nodes := make([]*daemon.Node, np)
	for r := 0; r < np; r++ {
		nodes[r] = daemon.NewNode(k, net, event.Rank(r), np,
			daemon.Vdaemon(), &passProto{})
	}
	done := 0
	for r := 0; r < np; r++ {
		r := r
		k.Spawn("rank", func(p *sim.Proc) {
			nodes[r].Bind(p)
			body(NewComm(nodes[r]))
			done++
		})
	}
	k.Run()
	if done != np {
		t.Fatalf("%d of %d ranks completed (deadlock)", done, np)
	}
	return nodes
}

func TestBcastReachesEveryone(t *testing.T) {
	for _, np := range []int{2, 3, 5, 8} {
		for root := 0; root < np; root += np/2 + 1 {
			received := make([]bool, np)
			root := root
			world(t, np, func(c *Comm) {
				c.Bcast(root, 4096)
				received[c.Rank()] = true
			})
			for r, ok := range received {
				if !ok {
					t.Fatalf("np=%d root=%d: rank %d never finished bcast", np, root, r)
				}
			}
		}
	}
}

func TestReduceCompletes(t *testing.T) {
	for _, np := range []int{2, 3, 4, 6, 8} {
		world(t, np, func(c *Comm) {
			c.Reduce(0, 512)
		})
	}
}

func TestAllreduceCompletes(t *testing.T) {
	for _, np := range []int{1, 2, 5, 8} {
		world(t, np, func(c *Comm) {
			c.Allreduce(64)
			c.Allreduce(64)
		})
	}
}

// TestAllreduceTrafficVolume pins Allreduce's cost: a binomial reduce to
// rank 0 and a binomial broadcast back each move one message per non-root
// rank, so np ranks send exactly 2(np−1) messages of the given size.
func TestAllreduceTrafficVolume(t *testing.T) {
	const bytes = 768
	for _, np := range []int{2, 3, 5, 8, 16} {
		nodes := world(t, np, func(c *Comm) {
			c.Allreduce(bytes)
		})
		var msgs, sent int64
		for _, n := range nodes {
			st := n.Stats()
			msgs += st.AppMsgsSent
			sent += st.AppBytesSent
		}
		if want := int64(2 * (np - 1)); msgs != want {
			t.Errorf("np=%d: allreduce sent %d messages, want %d", np, msgs, want)
		}
		if want := int64(2 * (np - 1) * bytes); sent != want {
			t.Errorf("np=%d: allreduce moved %d bytes, want %d", np, sent, want)
		}
	}
}

func TestAlltoallTrafficVolume(t *testing.T) {
	const np, bytes = 4, 1000
	nodes := world(t, np, func(c *Comm) {
		c.Alltoall(bytes)
	})
	var total int64
	for _, n := range nodes {
		total += n.Stats().AppBytesSent
	}
	want := int64(np * (np - 1) * bytes)
	if total != want {
		t.Fatalf("alltoall moved %d bytes, want %d", total, want)
	}
}

func TestSendrecvNoDeadlockSymmetric(t *testing.T) {
	world(t, 2, func(c *Comm) {
		// Both ranks send first: eager sends make this safe.
		other := 1 - c.Rank()
		for i := 0; i < 10; i++ {
			c.Sendrecv(other, 100_000, other, 9)
		}
	})
}

func TestRankAndSize(t *testing.T) {
	seen := make([]bool, 3)
	world(t, 3, func(c *Comm) {
		if c.Size() != 3 {
			t.Errorf("Size = %d", c.Size())
		}
		seen[c.Rank()] = true
	})
	for r, ok := range seen {
		if !ok {
			t.Errorf("rank %d missing", r)
		}
	}
}
