package workload

import (
	"mpichv/internal/daemon"
	"mpichv/internal/mpi"
	"mpichv/internal/sim"
)

// BuildWitnessPair constructs the minimal topology where determinant loss
// is possible: rank 2 feeds rank 0 (so rank 0 creates reception
// determinants), and rank 0 sends only to rank 1 — rank 1 is the sole
// witness of rank 0's determinants. Felling ranks 0 and 1 in the same
// instant destroys every copy of those determinants when no Event Logger
// is deployed; with one they survive on stable storage. The determinant-
// loss regression tests and the ext-elcontribution smoke grid all run this
// exact scenario, so tuning it here keeps what CI smokes and what the unit
// tests prove in lockstep.
func BuildWitnessPair(iters int) *Instance {
	return spmd(Spec{Bench: "custom", NP: 3}, 0, 8<<20, func(_ *daemon.Node, c *mpi.Comm) {
		for i := 0; i < iters; i++ {
			c.Compute(500 * sim.Microsecond)
			switch c.Rank() {
			case 0: // the victim
				c.Recv(2, 0)
				c.Send(1, 0, 256)
			case 1: // the only witness
				c.Recv(0, 0)
			case 2: // the feeder
				c.Send(0, 0, 256)
			}
		}
	})
}
