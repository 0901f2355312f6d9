// Faulttolerance: kill rank 0 in the middle of a BT run and watch causal
// message logging recover it — checkpoint restore, determinant collection
// from the Event Logger, sender-based payload replay — while the other
// ranks keep their work. The same scenario is then run without the Event
// Logger to show the recovery-time gap (the paper's Figure 10 effect).
package main

import (
	"fmt"

	"mpichv"
)

func main() {
	for _, useEL := range []bool{true, false} {
		spec := mpichv.BenchmarkSpec{Bench: "bt", Class: "A", NP: 4}
		bench := mpichv.BuildBenchmark(spec)

		c := mpichv.NewCluster(mpichv.Config{
			NP:           spec.NP,
			Stack:        mpichv.StackVcausal,
			Reducer:      "vcausal",
			UseEL:        useEL,
			CkptPolicy:   mpichv.PolicyRoundRobin,
			CkptInterval: 8 * mpichv.Second,
			RestartDelay: 250 * mpichv.Millisecond,
		})
		d := c.PrepareRun(bench.Programs)
		d.ScheduleFault(12*mpichv.Second, 0) // kill rank 0 mid-run
		d.Launch()
		elapsed := c.RunLaunched(60 * mpichv.Minute).MustCompleted()

		st := c.Nodes[0].Stats()
		fmt.Printf("BT.A on 4 nodes, Vcausal, Event Logger = %v\n", useEL)
		fmt.Printf("  completed in %v after %d fault(s)\n", elapsed, d.Kills)
		fmt.Printf("  rank 0: %d recovery, determinant collection took %v, full recovery %v\n\n",
			st.Recoveries, st.RecoveryEventCollection, st.RecoveryTotal)
		c.Close()
	}
}
