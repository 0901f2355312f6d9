// Protocolcomparison: the paper's core experiment in miniature — run one
// NAS kernel under all three causal piggyback-reduction protocols, with and
// without the Event Logger, and compare the four criteria the paper uses:
// piggyback volume, piggyback computation time, application performance and
// volatile memory occupation.
package main

import (
	"fmt"

	"mpichv/internal/causal"
	"mpichv/internal/cluster"
	"mpichv/internal/sim"
	"mpichv/internal/workload"
)

func main() {
	spec := workload.Spec{Bench: "cg", Class: "A", NP: 8}
	fmt.Printf("CG class A on %d nodes — causal protocol comparison\n\n", spec.NP)
	fmt.Printf("%-10s %-6s %10s %12s %12s %12s %10s\n",
		"protocol", "EL", "Mflop/s", "pb bytes", "pb events", "pb time", "max held")

	for _, reducer := range causal.Names() {
		for _, useEL := range []bool{true, false} {
			bench := workload.Build(spec)
			c := cluster.New(cluster.Config{
				NP:      spec.NP,
				Stack:   cluster.StackVcausal,
				Reducer: reducer,
				UseEL:   useEL,
			})
			elapsed := c.Run(bench.Programs, 10*sim.Minute).MustCompleted()
			st := c.AggregateStats()
			fmt.Printf("%-10s %-6v %10.1f %12d %12d %12v %10d\n",
				reducer, useEL, bench.Mflops(elapsed),
				st.PiggybackBytes, st.PiggybackEvents,
				st.SendPiggybackTime+st.RecvPiggybackTime,
				st.MaxHeldDeterminants)
			c.Close()
		}
	}
	fmt.Println("\nExpected: the EL rows piggyback far less, compute faster and hold less memory —")
	fmt.Println("the paper's conclusion that the Event Logger is fundamental to causal logging.")
}
