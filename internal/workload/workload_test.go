package workload

import (
	"testing"

	"mpichv/internal/cluster"
	"mpichv/internal/sim"
)

func runInstance(t *testing.T, in *Instance, stack, reducer string, useEL bool) (sim.Time, *cluster.Cluster) {
	t.Helper()
	c := cluster.New(cluster.Config{
		NP: in.NP, Stack: stack, Reducer: reducer, UseEL: useEL,
	})
	end := c.Run(in.Programs, 4*sim.Minute*60).MustCompleted() // generous virtual cap
	return end, c
}

func TestAllBenchmarksCompleteOnVdummy(t *testing.T) {
	specs := []Spec{
		{Bench: "bt", Class: "A", NP: 4}, {Bench: "bt", Class: "A", NP: 9},
		{Bench: "sp", Class: "A", NP: 4},
		{Bench: "cg", Class: "A", NP: 2}, {Bench: "cg", Class: "A", NP: 8},
		{Bench: "lu", Class: "A", NP: 4},
		{Bench: "ft", Class: "A", NP: 4},
		{Bench: "mg", Class: "A", NP: 4},
	}
	for _, s := range specs {
		in := Build(s)
		if len(in.Programs) != s.NP {
			t.Fatalf("%v: %d programs", s, len(in.Programs))
		}
		end, c := runInstance(t, in, cluster.StackVdummy, "", false)
		if end <= 0 {
			t.Errorf("%v: zero elapsed time", s)
		}
		if got := c.AggregateStats().AppMsgsSent; got == 0 {
			t.Errorf("%v: no messages", s)
		}
		if mf := in.Mflops(end); mf <= 0 {
			t.Errorf("%v: Mflops = %f", s, mf)
		}
	}
}

// TestImageSizeSetByPrograms: every builder's programs set their node's
// checkpoint image size from the instance when they run, so a size set
// after the build (a harness override) reaches every node.
func TestImageSizeSetByPrograms(t *testing.T) {
	const size = 12345
	for _, in := range []*Instance{
		Build(Spec{Bench: "bt", Class: "A", NP: 4}), Build(Spec{Bench: "sp", Class: "A", NP: 4}),
		Build(Spec{Bench: "cg", Class: "A", NP: 2}), Build(Spec{Bench: "lu", Class: "A", NP: 2}),
		Build(Spec{Bench: "ft", Class: "A", NP: 2}), Build(Spec{Bench: "mg", Class: "A", NP: 2}),
		BuildPingPong(64, 3), BuildWitnessPair(3),
		BuildService(ServiceConfig{NP: 2, RatePerRank: 100, Window: 50 * sim.Millisecond}),
	} {
		if in.AppStateBytes <= 0 {
			t.Errorf("%v states no image size", in.Spec)
		}
		in.AppStateBytes = size
		_, c := runInstance(t, in, cluster.StackVdummy, "", false)
		for r, n := range c.Nodes {
			if n.AppStateBytes != size {
				t.Errorf("%v: rank %d image size %d, want %d", in.Spec, r, n.AppStateBytes, size)
			}
		}
		c.Close()
	}
}

func TestBenchmarksRunUnderCausalProtocols(t *testing.T) {
	for _, reducer := range []string{"vcausal", "manetho", "logon"} {
		for _, useEL := range []bool{true, false} {
			in := Build(Spec{Bench: "cg", Class: "A", NP: 4})
			end, _ := runInstance(t, in, cluster.StackVcausal, reducer, useEL)
			if end <= 0 {
				t.Errorf("cg.A.4 %s el=%v failed", reducer, useEL)
			}
		}
	}
}

func TestCommunicationCharacters(t *testing.T) {
	// The skeletons must preserve each kernel's communication character:
	// LU sends many more, smaller messages than BT; FT moves the most
	// bytes per message through its all-to-all.
	msgStats := func(bench string, np int) (msgs int64, bytesPerMsg float64) {
		in := Build(Spec{Bench: bench, Class: "A", NP: np})
		_, c := runInstance(t, in, cluster.StackVdummy, "", false)
		st := c.AggregateStats()
		return st.AppMsgsSent, float64(st.AppBytesSent) / float64(st.AppMsgsSent)
	}
	luMsgs, luSize := msgStats("lu", 4)
	btMsgs, btSize := msgStats("bt", 4)
	if luMsgs <= btMsgs {
		t.Errorf("LU should send more messages than BT: %d vs %d", luMsgs, btMsgs)
	}
	if luSize >= btSize {
		t.Errorf("LU messages should be smaller than BT's: %.0f vs %.0f", luSize, btSize)
	}
}

func TestClassBBiggerThanClassA(t *testing.T) {
	a := Build(Spec{Bench: "cg", Class: "A", NP: 4})
	b := Build(Spec{Bench: "cg", Class: "B", NP: 4})
	if b.TotalFlops <= a.TotalFlops {
		t.Error("class B must have more flops than class A")
	}
	endA, _ := runInstance(t, a, cluster.StackVdummy, "", false)
	endB, _ := runInstance(t, b, cluster.StackVdummy, "", false)
	if endB <= endA {
		t.Errorf("class B (%v) should run longer than class A (%v)", endB, endA)
	}
}

func TestPingPong(t *testing.T) {
	in := BuildPingPong(1024, 100)
	end, c := runInstance(t, in, cluster.StackVdummy, "", false)
	if end <= 0 {
		t.Fatal("pingpong failed")
	}
	if got := c.AggregateStats().AppMsgsSent; got != 200 {
		t.Fatalf("pingpong sent %d messages, want 200", got)
	}
}

func TestInvalidProcessCountsPanic(t *testing.T) {
	cases := []Spec{{Bench: "bt", Class: "A", NP: 6}, {Bench: "cg", Class: "A", NP: 3}, {Bench: "lu", Class: "A", NP: 5}, {Bench: "cg", Class: "C", NP: 4}}
	for _, s := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v: no panic for invalid NP or class", s)
				}
			}()
			Build(s)
		}()
	}
}

func TestSpecString(t *testing.T) {
	if got := (Spec{Bench: "bt", Class: "A", NP: 9}).String(); got != "bt.A.9" {
		t.Errorf("Spec.String() = %q", got)
	}
}
