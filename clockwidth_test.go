package mpichv_test

import (
	"testing"

	"mpichv/internal/cluster"
	"mpichv/internal/daemon"
	"mpichv/internal/failure"
	"mpichv/internal/harness"
	"mpichv/internal/mpi"
	"mpichv/internal/sim"
)

// TestClocksPastSixteenBits runs a cell whose event clocks pass 65,535,
// the largest value a narrow antecedence-graph clock word holds: 4 ranks
// without an Event Logger, so every determinant stays held, each sending
// 70,000 times to its right neighbour and every 7th iteration also to the
// rank two ahead (80,000 events per rank). The graph must widen its clock
// arena mid-run and keep every clock exact, so the virtual time and the
// piggyback volume are pinned for Manetho and LogOn, the two reducers that
// compute clocks. A clock truncated to 16 bits under-estimates what a
// destination holds and sends it determinants it already has.
func TestClocksPastSixteenBits(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two 320,000-event cells (~1 s)")
	}
	const np, iters = 4, 70000
	for _, tc := range []struct {
		reducer       string
		end           sim.Time
		events, bytes int64
	}{
		{"manetho", 556468104052, 1279944, 29118768},
		{"logon", 656650415314, 1279944, 30718656},
	} {
		programs := make([]failure.Program, np)
		for r := range programs {
			programs[r] = func(n *daemon.Node) {
				comm := mpi.NewComm(n)
				for i := range iters {
					comm.Send((r+1)%np, 0, 8)
					if i%7 == 0 {
						comm.Send((r+2)%np, 1, 8)
					}
					comm.Recv((r+np-1)%np, 0)
					if i%7 == 0 {
						comm.Recv((r+np-2)%np, 1)
					}
				}
			}
		}
		c := cluster.New(cluster.Config{NP: np, Stack: cluster.StackVcausal, Reducer: tc.reducer})
		end := c.Run(programs, harness.DefaultMaxVirtual).MustCompleted()
		st := c.AggregateStats()
		c.Close()
		t.Logf("%s: %v (%d ns) virtual, %d piggyback events, %d piggyback bytes", tc.reducer, end, int64(end), st.PiggybackEvents, st.PiggybackBytes)
		if end != tc.end || st.PiggybackEvents != tc.events || st.PiggybackBytes != tc.bytes {
			t.Errorf("%s: %v virtual, %d piggyback events, %d bytes; want %v, %d, %d",
				tc.reducer, end, st.PiggybackEvents, st.PiggybackBytes, tc.end, tc.events, tc.bytes)
		}
	}
}
