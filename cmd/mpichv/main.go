// Command mpichv runs one benchmark on one fault-tolerance stack and
// reports timing and protocol statistics — the simulated equivalent of
// launching an MPI job under the MPICH-V dispatcher.
//
// Examples:
//
//	mpichv -bench cg -class A -np 8 -stack vcausal -reducer manetho -el
//	mpichv -bench bt -class A -np 9 -stack coordinated -ckpt 5s
//	mpichv -bench lu -class A -np 4 -stack vcausal -reducer logon -el -fault-at 2s -ckpt 500ms
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mpichv"
)

func main() {
	bench := flag.String("bench", "cg", "benchmark: bt, sp, cg, lu, ft, mg, pingpong")
	class := flag.String("class", "A", "NAS class: A or B")
	np := flag.Int("np", 4, "number of MPI processes")
	stack := flag.String("stack", "vcausal", "stack: rawtcp, p4, vdummy, vcausal, pessimistic, coordinated")
	reducer := flag.String("reducer", "vcausal", "piggyback reducer for vcausal: vcausal, manetho, logon")
	useEL := flag.Bool("el", false, "deploy the Event Logger")
	ckpt := flag.Duration("ckpt", 0, "checkpoint interval (0 disables)")
	faultAt := flag.Duration("fault-at", 0, "kill rank 0 at this virtual time (0 disables)")
	msgBytes := flag.Int("bytes", 1024, "pingpong message size")
	reps := flag.Int("reps", 1000, "pingpong repetitions")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Parse()

	var b *mpichv.Benchmark
	if *bench == "pingpong" {
		*np = 2
		b = mpichv.BuildPingPong(*msgBytes, *reps)
	} else {
		b = mpichv.BuildBenchmark(mpichv.BenchmarkSpec{Bench: *bench, Class: *class, NP: *np})
	}

	cfg := mpichv.Config{
		NP:      *np,
		Stack:   *stack,
		Reducer: *reducer,
		UseEL:   *useEL,
		Seed:    *seed,
	}
	if *ckpt > 0 {
		cfg.CkptPolicy = mpichv.PolicyRoundRobin
		cfg.CkptInterval = mpichv.Time(*ckpt)
		if *stack == mpichv.StackCoordinated {
			cfg.CkptPolicy = mpichv.PolicyCoordinated
		}
	}

	c := mpichv.NewCluster(cfg)
	defer c.Close()
	d := c.PrepareRun(b.Programs)
	if *faultAt > 0 {
		d.ScheduleFault(mpichv.Time(*faultAt), 0)
	}
	d.Launch()

	wall := time.Now()
	elapsed := c.RunLaunched(100 * 60 * mpichv.Minute).MustCompleted()
	stats := c.AggregateStats()

	fmt.Printf("benchmark      : %s on %d processes, stack=%s", *bench, *np, *stack)
	if *stack == mpichv.StackVcausal {
		fmt.Printf("/%s el=%v", *reducer, *useEL)
	}
	fmt.Println()
	fmt.Printf("virtual time   : %v  (wall %.2fs)\n", elapsed, time.Since(wall).Seconds())
	if b.TotalFlops > 0 {
		fmt.Printf("performance    : %.1f Mflop/s\n", b.Mflops(elapsed))
	}
	fmt.Printf("app traffic    : %d messages, %d bytes\n", stats.AppMsgsSent, stats.AppBytesSent)
	fmt.Printf("piggyback      : %d events, %d bytes (%.2f%% of app bytes)\n",
		stats.PiggybackEvents, stats.PiggybackBytes, 100*stats.PiggybackShare())
	fmt.Printf("piggyback time : send %v, recv %v\n", stats.SendPiggybackTime, stats.RecvPiggybackTime)
	fmt.Printf("events         : %d created, %d logged to EL\n", stats.EventsCreated, stats.EventsLogged)
	fmt.Printf("checkpoints    : %d (%d bytes)\n", stats.Checkpoints, stats.CheckpointBytes)
	if stats.Recoveries > 0 {
		fmt.Printf("recoveries     : %d (event collection %v, total %v)\n",
			stats.Recoveries, stats.RecoveryEventCollection, stats.RecoveryTotal)
	}
	if d.Kills > 0 {
		fmt.Printf("faults         : %d injected, %d restarts\n", d.Kills, d.Restarts)
	}
	_ = os.Stdout
}
