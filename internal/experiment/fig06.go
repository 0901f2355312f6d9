package experiment

import (
	"fmt"

	"mpichv/internal/cluster"
	"mpichv/internal/harness"
	"mpichv/internal/sim"
	"mpichv/internal/workload"
)

// latencyStacks is Figure 6(a)'s protocol axis: the reference MPI, the raw
// framework, and the three causal protocols with and without Event Logger.
var latencyStacks = append([]harness.Stack{
	{Label: "P4", Stack: cluster.StackP4},
	{Label: "Vdummy", Stack: cluster.StackVdummy},
}, causalStacks...)

// fig06aReps is the ping-pong repetition count of the latency measurement.
const fig06aReps = 500

// fig06aReport reproduces Figure 6(a): one-way small-message latency of
// every stack, measured by a 1-byte NetPIPE ping-pong.
//
// It runs Figure 6(a) as one sweep: stacks × a single 1-byte
// ping-pong workload.
func fig06aReport(opts harness.Options) *Report {
	wl := harness.Workload{Key: "pingpong.1B", Make: func() *workload.Instance {
		return workload.BuildPingPong(1, fig06aReps)
	}}
	res := harness.Run(&harness.SweepSpec{
		Name:      "fig6a",
		Workloads: []harness.Workload{wl},
		Stacks:    latencyStacks,
	}, opts)
	t := &Table{
		Title:  "Figure 6(a): Ping-pong latency over Ethernet 100Mbit/s (µs, one-way)",
		Header: []string{"MPI implementation", "Latency (µs)"},
		Notes: []string{
			"expected shape: P4 < Vdummy < causal+EL (all three equal) < causal-noEL",
			"paper: P4 99.56, Vdummy 134.84, causal+EL ~156.9, Vcausal-noEL 165.2, graph-noEL ~173",
		},
	}
	for _, sc := range latencyStacks {
		cr := res.MustGet(wl.Key, sc.Label, "base")
		oneWay := cr.Elapsed.Microseconds() / (2 * fig06aReps)
		t.AddRow(sc.Label, f2(oneWay))
	}
	return &Report{Tables: []*Table{t}, Sweeps: []*harness.Results{res}}
}

// bandwidthSizes is the message-size sweep of Figure 6(b).
var bandwidthSizes = []int{1, 64, 1 << 10, 8 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 8 << 20}

// fig06bStacks is Figure 6(b)'s protocol axis.
var fig06bStacks = append([]harness.Stack{{Label: "RAW TCP", Stack: cluster.StackRawTCP}},
	stacksNamed("MPICH-P4", "MPICH-Vdummy", "Vcausal (EL)", "Manetho (EL)", "Manetho (no EL)", "LogOn (no EL)")...)

// fig06bReport reproduces Figure 6(b): ping-pong bandwidth versus
// message size for raw TCP, P4, Vdummy and the causal variants.
//
// It runs Figure 6(b) as one sweep: stacks × one ping-pong
// workload per message size.
func fig06bReport(opts harness.Options) *Report {
	workloads := make([]harness.Workload, len(bandwidthSizes))
	for i, size := range bandwidthSizes {
		workloads[i] = harness.Workload{Key: sizeLabel(size), Make: func() *workload.Instance {
			return workload.BuildPingPong(size, fig06bReps(size))
		}}
	}
	res := harness.Run(&harness.SweepSpec{
		Name:      "fig6b",
		Workloads: workloads,
		Stacks:    fig06bStacks,
	}, opts)

	t := &Table{
		Title:  "Figure 6(b): Ping-pong bandwidth over Ethernet 100Mbit/s (Mbit/s)",
		Header: stackHeader(fig06bStacks, "Message size"),
		Notes: []string{
			"expected shape: raw TCP tops out ~90+ Mbit/s; all causal variants share one curve",
			"below Vdummy; EL vs no-EL indistinguishable at large sizes",
		},
	}
	for i, size := range bandwidthSizes {
		row := []string{sizeLabel(size)}
		for _, sc := range fig06bStacks {
			row = append(row, f2(pingPongMbps(size, res.MustGet(workloads[i].Key, sc.Label, "base").Elapsed)))
		}
		t.AddRow(row...)
	}
	return &Report{Tables: []*Table{t}, Sweeps: []*harness.Results{res}}
}

// pingPongMbps is the bandwidth of a Figure 6(b) ping-pong of size-byte
// messages that took elapsed: every round trip moves the message twice.
func pingPongMbps(size int, elapsed sim.Time) float64 {
	return float64(size) * 8 * float64(2*fig06bReps(size)) / elapsed.Seconds() / 1e6
}

// fig06bReps shortens the ping-pong at large message sizes.
func fig06bReps(size int) int {
	if size >= 1<<20 {
		return 8
	}
	return 50
}

func sizeLabel(b int) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%dM", b>>20)
	case b >= 1<<10:
		return fmt.Sprintf("%dK", b>>10)
	default:
		return fmt.Sprintf("%dB", b)
	}
}
