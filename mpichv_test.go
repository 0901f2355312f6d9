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
	idx := experiment.Index()
	for _, name := range experiment.Names() {
		if idx[name] == nil {
			t.Errorf("experiment %q missing from index", name)
		}
	}
	if len(causal.Names()) != 3 {
		t.Error("three reducers expected")
	}
}

func TestExperimentRunsByName(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment regeneration is slow")
	}
	tab := experiment.Index()["fig6a"]().Table
	if tab == nil || len(tab.Rows) == 0 {
		t.Fatal("fig6a produced no table")
	}
	if out := tab.Render(); len(out) == 0 {
		t.Fatal("empty render")
	}
}
