package experiment

import (
	"fmt"

	"mpichv/internal/cluster"
	"mpichv/internal/harness"
)

// latencyStacks is Figure 6(a)'s protocol axis: the reference MPI, the raw
// framework, and the three causal protocols with and without Event Logger.
var latencyStacks = append([]harness.Stack{
	{Label: "P4", Stack: cluster.StackP4},
	{Label: "Vdummy", Stack: cluster.StackVdummy},
}, causalStacks...)

// fig06aReps is the ping-pong repetition count of the latency measurement.
const fig06aReps = 500

// Fig06aReport reproduces Figure 6(a): one-way small-message latency of
// every stack, measured by a 1-byte NetPIPE ping-pong.
//
// It runs Figure 6(a) as one sweep: stacks × a single 1-byte
// ping-pong workload.
func Fig06aReport() *Report {
	wl := harness.Workload{Key: "pingpong.1B", PingPongBytes: 1, PingPongReps: fig06aReps}
	res := sweep(&harness.SweepSpec{
		Name:      "fig6a",
		Workloads: []harness.Workload{wl},
		Stacks:    latencyStacks,
	})
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
	return &Report{Name: "fig6a", Table: t, Sweeps: []*harness.Results{res}}
}

// BandwidthSizes is the message-size sweep of Figure 6(b).
var BandwidthSizes = []int{1, 64, 1 << 10, 8 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 8 << 20}

// fig06bStacks is Figure 6(b)'s protocol axis.
var fig06bStacks = []harness.Stack{
	{Label: "RAW TCP", Stack: cluster.StackRawTCP},
	{Label: "MPICH-P4", Stack: cluster.StackP4},
	{Label: "MPICH-Vdummy", Stack: cluster.StackVdummy},
	{Label: "Vcausal (EL)", Stack: cluster.StackVcausal, Reducer: "vcausal", UseEL: true},
	{Label: "Manetho (EL)", Stack: cluster.StackVcausal, Reducer: "manetho", UseEL: true},
	{Label: "Manetho (no EL)", Stack: cluster.StackVcausal, Reducer: "manetho", UseEL: false},
	{Label: "LogOn (no EL)", Stack: cluster.StackVcausal, Reducer: "logon", UseEL: false},
}

// Fig06bReport reproduces Figure 6(b): ping-pong bandwidth versus
// message size for raw TCP, P4, Vdummy and the causal variants.
//
// It runs Figure 6(b) as one sweep: stacks × one ping-pong
// workload per message size.
func Fig06bReport() *Report {
	workloads := make([]harness.Workload, len(BandwidthSizes))
	for i, size := range BandwidthSizes {
		workloads[i] = harness.Workload{
			Key:           sizeLabel(size),
			PingPongBytes: size,
			PingPongReps:  fig06bReps(size),
		}
	}
	res := sweep(&harness.SweepSpec{
		Name:      "fig6b",
		Workloads: workloads,
		Stacks:    fig06bStacks,
	})

	header := []string{"Message size"}
	for _, sc := range fig06bStacks {
		header = append(header, sc.Label)
	}
	t := &Table{
		Title:  "Figure 6(b): Ping-pong bandwidth over Ethernet 100Mbit/s (Mbit/s)",
		Header: header,
		Notes: []string{
			"expected shape: raw TCP tops out ~90+ Mbit/s; all causal variants share one curve",
			"below Vdummy; EL vs no-EL indistinguishable at large sizes",
		},
	}
	for i, size := range BandwidthSizes {
		row := []string{sizeLabel(size)}
		for _, sc := range fig06bStacks {
			cr := res.MustGet(workloads[i].Key, sc.Label, "base")
			bits := float64(size) * 8 * float64(2*fig06bReps(size))
			mbps := bits / cr.Elapsed.Seconds() / 1e6
			row = append(row, f2(mbps))
		}
		t.AddRow(row...)
	}
	return &Report{Name: "fig6b", Table: t, Sweeps: []*harness.Results{res}}
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
