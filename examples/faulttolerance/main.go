// Faulttolerance: kill rank 0 in the middle of a BT run and watch causal
// message logging recover it — checkpoint restore, determinant collection
// from the Event Logger, sender-based payload replay — while the other
// ranks keep their work. The same scenario is then run without the Event
// Logger to show the recovery-time gap (the paper's Figure 10 effect).
package main

import (
	"fmt"

	"mpichv/internal/checkpoint"
	"mpichv/internal/cluster"
	"mpichv/internal/sim"
	"mpichv/internal/workload"
)

func main() {
	for _, useEL := range []bool{true, false} {
		spec := workload.Spec{Bench: "bt", Class: "A", NP: 4}
		bench := workload.Build(spec)

		c := cluster.New(cluster.Config{
			NP:           spec.NP,
			Stack:        cluster.StackVcausal,
			Reducer:      "vcausal",
			UseEL:        useEL,
			CkptPolicy:   checkpoint.PolicyRoundRobin,
			CkptInterval: 8 * sim.Second,
			RestartDelay: 250 * sim.Millisecond,
		})
		d := c.PrepareRun(bench.Programs)
		d.ScheduleFault(12*sim.Second, 0) // kill rank 0 mid-run
		d.Launch()
		elapsed := c.RunLaunched(60 * sim.Minute).MustCompleted()

		st := c.Nodes[0].Stats()
		fmt.Printf("BT.A on 4 nodes, Vcausal, Event Logger = %v\n", useEL)
		fmt.Printf("  completed in %v after %d fault(s)\n", elapsed, d.Kills)
		fmt.Printf("  rank 0: %d recovery, determinant collection took %v, full recovery %v\n\n",
			st.Recoveries, st.RecoveryEventCollection, st.RecoveryTotal)
		c.Close()
	}
}
