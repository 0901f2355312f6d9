// Quickstart: run the NAS CG kernel on 4 simulated nodes under the Manetho
// causal logging protocol with an Event Logger, and print the performance
// and protocol overhead figures.
package main

import (
	"fmt"

	"mpichv/internal/cluster"
	"mpichv/internal/sim"
	"mpichv/internal/workload"
)

func main() {
	spec := workload.Spec{Bench: "cg", Class: "A", NP: 4}
	bench := workload.Build(spec)

	c := cluster.New(cluster.Config{
		NP:      spec.NP,
		Stack:   cluster.StackVcausal,
		Reducer: "manetho",
		UseEL:   true,
	})
	defer c.Close()
	elapsed := c.Run(bench.Programs, 10*sim.Minute).MustCompleted()
	stats := c.AggregateStats()

	fmt.Printf("CG class A on %d nodes under Manetho causal logging (with Event Logger)\n", spec.NP)
	fmt.Printf("  virtual runtime : %v\n", elapsed)
	fmt.Printf("  performance     : %.1f Mflop/s\n", bench.Mflops(elapsed))
	fmt.Printf("  app traffic     : %d messages, %.1f MB\n",
		stats.AppMsgsSent, float64(stats.AppBytesSent)/1e6)
	fmt.Printf("  piggyback       : %d determinants, %.2f%% of app bytes\n",
		stats.PiggybackEvents, 100*stats.PiggybackShare())
	fmt.Printf("  events logged   : %d of %d created\n", stats.EventsLogged, stats.EventsCreated)
}
