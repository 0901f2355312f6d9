package mpichv_test

import (
	"testing"

	"mpichv/internal/cluster"
	"mpichv/internal/harness"
	"mpichv/internal/protocols"
	"mpichv/internal/workload"
)

// TestLogFootprint is the memory census of the two logs an Event Logger
// run keeps: at the end of Figure 7's LU.A.16 cell with Manetho and the
// Event Logger, the host bytes the sender logs' rows and the Event
// Logger's store hold (capacity times entry size, summed over every node
// and the logger). It is a count, not a measurement, so it is pinned
// exactly: a change that widens either log's entry, or changes how its
// rows grow, moves it and updates this test in the same diff. CI prints
// the census line in the test job's summary. The modelled sender-log
// bytes (SenderLog.Bytes, what the tables charge) are pinned beside it,
// since no change of the held form may move them.
func TestLogFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs one LU.A.16 cell (~0.5 s)")
	}
	const wantLog, wantEL, wantModelled = 2770432, 2522912, 372060000
	in := workload.Build(workload.Spec{Bench: "lu", Class: "A", NP: 16})
	c := cluster.New(cluster.Config{NP: 16, Stack: cluster.StackVcausal, Reducer: "manetho", UseEL: true})
	defer c.Close()
	c.Run(in.Programs, harness.DefaultMaxVirtual).MustCompleted()
	var logHeld, modelled, elHeld int64
	for _, n := range c.Nodes {
		logHeld += n.Log.HeldBytes()
		modelled += n.Log.Bytes()
	}
	for _, s := range c.ELs {
		elHeld += s.HeldBytes()
	}
	t.Logf("held log bytes: %d (sender logs %d, Event Logger %d; LU.A.16 Manetho with the Event Logger)",
		logHeld+elHeld, logHeld, elHeld)
	if logHeld != wantLog || elHeld != wantEL || modelled != wantModelled {
		t.Errorf("sender logs hold %d bytes, the Event Logger %d, modelled sender-log bytes %d; want %d, %d, %d",
			logHeld, elHeld, modelled, wantLog, wantEL, wantModelled)
	}
}

// TestGraphFootprint is the antecedence graph's memory census, pinned like
// TestLogFootprint's: at the end of Figure 7's LU.A.16 cell with Manetho
// and no Event Logger, where nothing is ever stable and every determinant
// stays held, the host bytes the reducers' stores hold (chain capacity
// times node size plus the clock arena's blocks, summed over every rank).
// A change to the node, the arena's word or block size, or how chains
// grow moves it and updates this test in the same diff. CI prints the
// census line in the test job's summary.
func TestGraphFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs one LU.A.16 cell (~1 s)")
	}
	const want = 79003648 // 117,374,976 with 32-bit clock words
	in := workload.Build(workload.Spec{Bench: "lu", Class: "A", NP: 16})
	c := cluster.New(cluster.Config{NP: 16, Stack: cluster.StackVcausal, Reducer: "manetho"})
	defer c.Close()
	c.Run(in.Programs, harness.DefaultMaxVirtual).MustCompleted()
	var held int64
	for _, n := range c.Nodes {
		held += n.Proto.(*protocols.Vcausal).HeldBytes()
	}
	t.Logf("held graph bytes: %d (LU.A.16 Manetho without the Event Logger)", held)
	if held != want {
		t.Errorf("the antecedence graphs hold %d bytes, want %d", held, want)
	}
}
