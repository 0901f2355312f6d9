package checkpoint_test

import (
	"fmt"
	"testing"

	"mpichv/internal/checkpoint"
	"mpichv/internal/cluster"
	"mpichv/internal/daemon"
	"mpichv/internal/event"
	"mpichv/internal/failure"
	"mpichv/internal/mpi"
	"mpichv/internal/sim"
)

// cutOracle checks every wave the checkpoint server completes during a
// coordinated run, at each scheduler wave and once more at the end.
type cutOracle struct {
	t        *testing.T
	name     string
	np       int
	server   *checkpoint.Server
	issuedAt []sim.Time // issuedAt[e-1] is when wave e's requests went out
	complete map[int]bool
	// orphanWaves counts completed waves in which some image accepted a
	// message its sender's image had not yet sent; each is an error.
	orphanWaves int
}

// check visits the waves that completed since the last visit. A wave is a
// consistent cut (Elnozahy et al., ACM CSUR 2002) when, for every ordered
// pair of ranks (s, r), with L the highest sequence r's image has accepted
// from s and S the highest s's image has sent to r: L ≤ S, so r holds no
// message s has not sent (an orphan), and r's channel state from s above
// L is exactly the messages L+1 … S, those in transit across the cut.
func (o *cutOracle) check() {
	for e := 1; e <= len(o.issuedAt); e++ {
		w := o.server.Wave(e)
		if o.complete[e] || len(w) < o.np {
			continue
		}
		o.complete[e] = true
		orphan := false
		for s := 0; s < o.np; s++ {
			for r := 0; r < o.np; r++ {
				if s == r {
					continue
				}
				last := w[event.Rank(r)].LastSeqSeen.Get(s)
				sent := w[event.Rank(s)].SendSeqs.Get(r)
				if last > sent {
					orphan = true
					o.t.Errorf("%s: wave %d: rank %d's image accepted %d messages from rank %d, whose image sent %d (orphan)",
						o.name, e, r, last, s, sent)
				}
				var inTransit []uint64
				for _, m := range w[event.Rank(r)].ChannelMsgs {
					if int(m.Src) == s && m.SendSeq > last {
						inTransit = append(inTransit, m.SendSeq)
					}
				}
				if want := seqRange(last, sent); fmt.Sprint(inTransit) != fmt.Sprint(want) {
					o.t.Errorf("%s: wave %d: rank %d's channel state from rank %d is %v, want %v",
						o.name, e, r, s, inTransit, want)
				}
			}
		}
		if orphan {
			o.orphanWaves++
		}
	}
}

// seqRange returns the sequence numbers lo+1 … hi (empty when hi ≤ lo).
func seqRange(lo, hi uint64) []uint64 {
	var out []uint64
	for s := lo + 1; s <= hi; s++ {
		out = append(out, s)
	}
	return out
}

// waveInterval spaces the waves so that one wave's four 64 KB stores
// (about 21 ms on the server's 100 Mbit/s link) fit before the next.
const waveInterval = 20 * sim.Millisecond

// runChecked runs progs on the coordinated stack with the given image
// size, kills rank 1 at killAt unless it is 0, and checks every completed
// wave. Fault-free, every wave issued at least one interval before the
// run's end must complete.
func runChecked(t *testing.T, name string, progs []failure.Program, image int64, killAt sim.Time) *cutOracle {
	t.Helper()
	c := cluster.New(cluster.Config{
		NP: len(progs), Stack: cluster.StackCoordinated,
		CkptPolicy: checkpoint.PolicyCoordinated, CkptInterval: waveInterval,
		RestartDelay:  20 * sim.Millisecond,
		AppStateBytes: image,
	})
	defer c.Close()
	o := &cutOracle{t: t, name: name, np: len(progs), server: c.CkptServer, complete: make(map[int]bool)}
	c.Scheduler.ObserveWaves(func(int) {
		o.issuedAt = append(o.issuedAt, c.K.Now())
		o.check()
	})
	d := c.PrepareRun(progs)
	if killAt > 0 {
		d.ScheduleFault(killAt, 1)
	}
	d.Launch()
	end := c.RunLaunched(30 * sim.Minute).MustCompleted()
	o.check()
	if killAt == 0 {
		for i, at := range o.issuedAt {
			if at+waveInterval <= end && !o.complete[i+1] {
				t.Errorf("%s: wave %d, issued at %v, never completed (run ended at %v)", name, i+1, at, end)
			}
		}
	}
	t.Logf("%s: %d waves issued, %d completed, %d with an orphan", name, len(o.issuedAt), len(o.complete), o.orphanWaves)
	return o
}

// ring: iters rounds of 1 ms of compute, then a 1 KB message to the right
// neighbour and one from the left.
func ring(np, iters int) []failure.Program {
	progs := make([]failure.Program, np)
	for r := range progs {
		progs[r] = func(n *daemon.Node) {
			c := mpi.NewComm(n)
			for i := 0; i < iters; i++ {
				c.Compute(sim.Millisecond)
				c.Send((c.Rank()+1)%np, 1, 1024)
				c.Recv((c.Rank()-1+np)%np, 1)
			}
		}
	}
	return progs
}

// TestCoordinatedWavesAreConsistentCuts runs the consistent-cut oracle over
// a 4-rank ring, fault-free and with a kill, over a run where rank 0
// finishes before the first wave, and over one where a marker and the
// messages after it on its channel reach rank 1 inside one Compute, which
// only a snapshot at the first marker keeps out of the cut. A rank that
// never answers a wave breaks no cut; it only stops every later wave from
// completing, which the fault-free liveness check catches.
func TestCoordinatedWavesAreConsistentCuts(t *testing.T) {
	early := []failure.Program{
		func(n *daemon.Node) { n.Send(1, 0, 1024) },
		func(n *daemon.Node) {
			n.Recv(0, 0)
			for i := 0; i < 100; i++ {
				n.Compute(sim.Millisecond)
			}
		},
	}
	midCompute := []failure.Program{
		func(n *daemon.Node) {
			for i := 0; i < 200; i++ {
				n.Compute(200 * sim.Microsecond)
				n.Send(1, 0, 1024)
			}
		},
		func(n *daemon.Node) {
			for i := 0; i < 200; i++ {
				n.Compute(2 * sim.Millisecond)
				n.Recv(0, 0)
			}
		},
	}
	for _, tc := range []struct {
		name   string
		progs  []failure.Program
		image  int64
		killAt sim.Time
	}{
		{"ring", ring(4, 150), 16 << 10, 0},
		{"ring-kill", ring(4, 150), 16 << 10, 70 * sim.Millisecond},
		{"early-finish", early, 64 << 10, 0},
		{"marker-mid-compute", midCompute, 16 << 10, 0},
	} {
		if o := runChecked(t, tc.name, tc.progs, tc.image, tc.killAt); len(o.complete) == 0 {
			t.Errorf("%s: no wave completed", tc.name)
		}
	}
}
