// Custommpi: write your own MPI program against the mpi package —
// here a 5-point stencil halo exchange with periodic convergence
// all-reduces — and run it fault tolerantly under LogOn causal logging,
// surviving two injected failures.
package main

import (
	"fmt"

	"mpichv/internal/checkpoint"
	"mpichv/internal/cluster"
	"mpichv/internal/daemon"
	"mpichv/internal/failure"
	"mpichv/internal/mpi"
	"mpichv/internal/sim"
)

const (
	np    = 8
	iters = 60
	halo  = 16 << 10 // 16 KB halo per neighbour
)

func worker(rank int) failure.Program {
	return func(n *daemon.Node) {
		c := mpi.NewComm(n)
		left := (rank - 1 + np) % np
		right := (rank + 1) % np
		for it := 0; it < iters; it++ {
			c.Compute(300 * sim.Microsecond)
			c.Send(left, 1, halo)
			c.Send(right, 2, halo)
			c.Recv(right, 1)
			c.Recv(left, 2)
			if it%10 == 9 {
				c.Allreduce(8) // convergence test
			}
		}
	}
}

func main() {
	c := cluster.New(cluster.Config{
		NP:            np,
		Stack:         cluster.StackVcausal,
		Reducer:       "logon",
		UseEL:         true,
		CkptPolicy:    checkpoint.PolicyRoundRobin,
		CkptInterval:  20 * sim.Millisecond,
		RestartDelay:  10 * sim.Millisecond,
		AppStateBytes: 256 << 10,
	})
	defer c.Close()

	programs := make([]failure.Program, np)
	for r := 0; r < np; r++ {
		programs[r] = worker(r)
	}
	d := c.PrepareRun(programs)
	d.ScheduleFault(15*sim.Millisecond, 3)
	d.ScheduleFault(40*sim.Millisecond, 6)
	d.Launch()
	elapsed := c.RunLaunched(10 * sim.Minute).MustCompleted()

	st := c.AggregateStats()
	fmt.Printf("stencil on %d ranks under LogOn causal logging\n", np)
	fmt.Printf("  completed in %v despite %d injected failures (%d restarts)\n",
		elapsed, d.Kills, d.Restarts)
	fmt.Printf("  %d messages, %d determinants created, %d recoveries\n",
		st.AppMsgsSent, st.EventsCreated, st.Recoveries)
}
