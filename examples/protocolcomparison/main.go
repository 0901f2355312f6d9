// Protocolcomparison: the paper's core experiment in miniature — run one
// NAS kernel under all three causal piggyback-reduction protocols, with and
// without the Event Logger, and compare the four criteria the paper uses:
// piggyback volume, piggyback computation time, application performance and
// volatile memory occupation.
package main

import (
	"fmt"

	"mpichv"
)

func main() {
	spec := mpichv.BenchmarkSpec{Bench: "cg", Class: "A", NP: 8}
	fmt.Printf("CG class A on %d nodes — causal protocol comparison\n\n", spec.NP)
	fmt.Printf("%-10s %-6s %10s %12s %12s %12s %10s\n",
		"protocol", "EL", "Mflop/s", "pb bytes", "pb events", "pb time", "max held")

	for _, reducer := range mpichv.Reducers() {
		for _, useEL := range []bool{true, false} {
			bench := mpichv.BuildBenchmark(spec)
			c := mpichv.NewCluster(mpichv.Config{
				NP:      spec.NP,
				Stack:   mpichv.StackVcausal,
				Reducer: reducer,
				UseEL:   useEL,
			})
			elapsed := c.Run(bench.Programs, 10*mpichv.Minute).MustCompleted()
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
