package mpichv_test

import (
	"testing"

	"mpichv/internal/causal"
	"mpichv/internal/cluster"
	"mpichv/internal/daemon"
	"mpichv/internal/experiment"
	"mpichv/internal/failure"
	"mpichv/internal/mpi"
	"mpichv/internal/sim"
	"mpichv/internal/workload"
)

func TestPublicQuickstartFlow(t *testing.T) {
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
	if elapsed <= 0 {
		t.Fatal("run failed")
	}
	if mf := bench.Mflops(elapsed); mf <= 0 {
		t.Fatalf("Mflops = %f", mf)
	}
	if st := c.AggregateStats(); st.EventsLogged == 0 {
		t.Fatal("no events reached the Event Logger")
	}
}

func TestPublicCustomProgram(t *testing.T) {
	const np = 3
	c := cluster.New(cluster.Config{NP: np, Stack: cluster.StackVcausal, Reducer: "logon", UseEL: false})
	defer c.Close()
	programs := make([]failure.Program, np)
	sum := 0
	for r := 0; r < np; r++ {
		r := r
		programs[r] = func(n *daemon.Node) {
			comm := mpi.NewComm(n)
			comm.Compute(100 * sim.Microsecond)
			comm.Allreduce(8)
			sum += r
		}
	}
	c.Run(programs, sim.Minute).MustCompleted()
	if sum != 3 {
		t.Fatalf("programs ran sum=%d, want 3", sum)
	}
}

func TestExperimentIndexComplete(t *testing.T) {
	seen := make(map[string]bool)
	for _, e := range experiment.Experiments {
		if e.Run == nil || seen[e.Name] {
			t.Errorf("experiment %q has no generator or a duplicate name", e.Name)
		}
		seen[e.Name] = true
	}
	if len(causal.Names()) != 3 {
		t.Error("three reducers expected")
	}
}
