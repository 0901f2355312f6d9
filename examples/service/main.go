// Service: run an always-on request/response workload on a causal logging
// stack, first fault-free, then through a rolling kill storm — and read
// the operator's dashboard: p50/p99 virtual latency, goodput, dropped
// requests and availability. The storm run shows the paper's claim from
// the service side: recovery cost lands in the latency tail, not in
// goodput.
package main

import (
	"fmt"

	"mpichv"
)

func main() {
	for _, faulted := range []bool{false, true} {
		// Per-rank Poisson arrivals are fixed at build time from the seed:
		// every run below serves the identical offered load. An instance
		// holds one run's statistics, so build a fresh one per run.
		in := mpichv.BuildService(mpichv.ServiceConfig{
			NP:          6,
			Seed:        7,
			RatePerRank: 5,                  // requests per rank per virtual second
			Window:      30 * mpichv.Second, // arrivals stop here...
			ServiceTime: 2 * mpichv.Millisecond,
			// A service checkpoints a working set, not solver matrices:
			// keep routine checkpoint stalls out of the fault-free tail.
			AppStateBytes: 128 << 10,
		})

		c := mpichv.NewCluster(mpichv.Config{
			NP:           6,
			Stack:        mpichv.StackVcausal,
			Reducer:      "vcausal",
			UseEL:        true,
			CkptPolicy:   mpichv.PolicyRoundRobin,
			CkptInterval: 5 * mpichv.Second,
			RestartDelay: 500 * mpichv.Millisecond,
			Horizon:      45 * mpichv.Second, // ...and the run is cut here
		})
		d := c.PrepareRun(in.Programs)
		if faulted {
			// A kill every 10 s, round-robin across ranks: each recovery
			// (restore + collect + replay) happens under live load.
			d.PeriodicFaults(10 * mpichv.Second)
		}
		d.Launch()
		// The virtual-time cap sits well past the horizon, so the horizon —
		// not the cap — decides when a faulted run ends.
		res := c.RunLaunched(60 * mpichv.Second)

		s := in.Service
		fmt.Printf("service on 6 ranks, Vcausal+EL, storm = %v\n", faulted)
		fmt.Printf("  outcome %s after %d kill(s): %d/%d requests, %d dropped\n",
			res.Outcome, d.Kills, s.Completed(), s.Scheduled(), s.Dropped())
		fmt.Printf("  p50 %v  p99 %v  goodput %.1f req/s  availability %.3f%%\n\n",
			s.Quantile(0.50), s.Quantile(0.99), s.GoodputRPS(res.End),
			100*c.Availability())
		c.Close()
	}
}
