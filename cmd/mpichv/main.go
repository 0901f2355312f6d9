// Command mpichv runs one benchmark on one fault-tolerance stack and
// reports timing and protocol statistics — the simulated equivalent of
// launching an MPI job under the MPICH-V dispatcher.
//
// Examples:
//
//	mpichv -bench cg -class A -np 8 -stack vcausal -reducer manetho -el
//	mpichv -bench bt -class A -np 9 -stack coordinated -ckpt 5s
//	mpichv -bench lu -class A -np 4 -stack vcausal -reducer logon -el -fault-at 2s -ckpt 500ms
//	mpichv -bench cg -np 1024 -reducer manetho -el -cpuprofile cpu.pb -memprofile mem.pb
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"mpichv/internal/checkpoint"
	"mpichv/internal/cluster"
	"mpichv/internal/profile"
	"mpichv/internal/sim"
	"mpichv/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it runs the job args describe, prints the report
// on stdout and returns the exit status — 2, with one line on stderr, for
// flag values the job cannot be built from.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mpichv", flag.ExitOnError)
	bench := fs.String("bench", "cg", "benchmark: bt, sp, cg, lu, ft, mg, pingpong")
	class := fs.String("class", "A", "NAS class: A or B")
	np := fs.Int("np", 4, "number of MPI processes")
	stack := fs.String("stack", "vcausal", "stack: rawtcp, p4, vdummy, vcausal, pessimistic, coordinated")
	reducer := fs.String("reducer", "vcausal", "piggyback reducer for vcausal: vcausal, manetho, logon")
	useEL := fs.Bool("el", false, "deploy the Event Logger")
	ckpt := fs.Duration("ckpt", 0, "checkpoint interval (0 disables)")
	faultAt := fs.Duration("fault-at", 0, "kill rank 0 at this virtual time (0 disables)")
	msgBytes := fs.Int("bytes", 1024, "pingpong message size")
	reps := fs.Int("reps", 1000, "pingpong repetitions")
	seed := fs.Int64("seed", 1, "simulation seed")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file when the run ends")
	fs.Parse(args) // exits on error
	if *bench == "pingpong" {
		*np = 2
	}

	cfg := cluster.Config{
		NP:      *np,
		Stack:   *stack,
		Reducer: *reducer,
		UseEL:   *useEL,
		Seed:    *seed,
	}
	if *ckpt > 0 {
		cfg.CkptPolicy = checkpoint.PolicyRoundRobin
		cfg.CkptInterval = sim.Time(*ckpt)
	}

	b, c, err := construct(cfg, func() *workload.Instance {
		if *bench == "pingpong" {
			return workload.BuildPingPong(*msgBytes, *reps)
		}
		return workload.Build(workload.Spec{Bench: *bench, Class: *class, NP: *np})
	})
	if err != nil {
		fmt.Fprintf(stderr, "mpichv: %v\n", err)
		return 2
	}
	defer c.Close()
	stopProfiles, err := profile.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(stderr, "mpichv: %v\n", err)
		return 2
	}
	d := c.PrepareRun(b.Programs)
	if *faultAt > 0 {
		d.ScheduleFault(sim.Time(*faultAt), 0)
	}
	d.Launch()

	wall := time.Now()
	elapsed := c.RunLaunched(100 * 60 * sim.Minute).MustCompleted()
	stats := c.AggregateStats()

	fmt.Fprintf(stdout, "benchmark      : %s on %d processes, stack=%s", *bench, *np, *stack)
	if *stack == cluster.StackVcausal {
		fmt.Fprintf(stdout, "/%s el=%v", *reducer, *useEL)
	}
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "virtual time   : %v  (wall %.2fs)\n", elapsed, time.Since(wall).Seconds())
	if b.TotalFlops > 0 {
		fmt.Fprintf(stdout, "performance    : %.1f Mflop/s\n", b.Mflops(elapsed))
	}
	fmt.Fprintf(stdout, "app traffic    : %d messages, %d bytes\n", stats.AppMsgsSent, stats.AppBytesSent)
	fmt.Fprintf(stdout, "piggyback      : %d events, %d bytes (%.2f%% of app bytes)\n",
		stats.PiggybackEvents, stats.PiggybackBytes, 100*stats.PiggybackShare())
	fmt.Fprintf(stdout, "piggyback time : send %v, recv %v\n", stats.SendPiggybackTime, stats.RecvPiggybackTime)
	fmt.Fprintf(stdout, "events         : %d created, %d logged to EL\n", stats.EventsCreated, stats.EventsLogged)
	fmt.Fprintf(stdout, "checkpoints    : %d (%d bytes)\n", stats.Checkpoints, stats.CheckpointBytes)
	if stats.Recoveries > 0 {
		fmt.Fprintf(stdout, "recoveries     : %d (event collection %v, total %v)\n",
			stats.Recoveries, stats.RecoveryEventCollection, stats.RecoveryTotal)
	}
	if d.Kills > 0 {
		fmt.Fprintf(stdout, "faults         : %d injected, %d restarts\n", d.Kills, d.Restarts)
	}
	// Before the deferred Close, so the heap profile holds the cell.
	if err := stopProfiles(); err != nil {
		fmt.Fprintf(stderr, "mpichv: %v\n", err)
		return 1
	}
	return 0
}

// construct builds the workload and the cluster. Both reject an unknown
// benchmark, class, stack or reducer name, or a process count the benchmark
// cannot be laid out on, by panicking with a message: here those values
// are user input, so the message comes back as an error.
func construct(cfg cluster.Config, build func() *workload.Instance) (b *workload.Instance, c *cluster.Cluster, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	return build(), cluster.New(cfg), nil
}
