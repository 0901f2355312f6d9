package obs

import (
	"bytes"
	"os"
	"testing"

	"mpichv/internal/sim"
)

// chromeScript is one scripted four-rank timeline that reaches every
// branch of the Chrome exporter: kills during a restore and during a
// checkpoint, a coordinated-rollback restart without a kill, a suspect
// then a fence, a replay closed by recovery-end, a rank finishing with
// phase windows open, a run ending with windows open, healed and unhealed
// partitions, a degrade and its clear, service and Event Logger marks, a
// determinant loss, the four gauges and events on ranks outside the
// deployment.
func chromeScript() (events []Event, np int, end sim.Time) {
	ms := sim.Millisecond
	at := func(t sim.Time, k Kind, rank int, arg int64, note string) {
		events = append(events, Event{T: t, Kind: k, Rank: rank, Arg: arg, Note: note})
	}
	// Rank 0: killed during its restore, then a full recovery with replay.
	at(1*ms, KindKill, 0, 0, "")
	at(2*ms, KindRestart, 0, 0, "")
	at(2*ms, KindRecoveryBegin, 0, 0, "")
	at(2*ms, KindRestoreBegin, 0, 0, "")
	at(3*ms, KindKill, 0, 0, "")
	at(4*ms, KindRestart, 0, 0, "")
	at(4*ms, KindRecoveryBegin, 0, 0, "")
	at(4*ms, KindRestoreBegin, 0, 0, "")
	at(5*ms, KindRestoreEnd, 0, 0, "")
	at(5*ms, KindCollectBegin, 0, 0, "")
	at(6*ms, KindELQuery, 0, 0, "")
	at(7*ms, KindCollectEnd, 0, 0, "")
	at(7*ms, KindReplayBegin, 0, 0, "")
	at(9*ms, KindRecoveryEnd, 0, 0, "")
	at(9*ms, KindRecovered, 0, 0, "")

	// Rank 1: killed inside a checkpoint transaction of a wave.
	at(10*ms, KindCkptWave, -1, 1, "")
	at(10*ms, KindCkptBegin, 1, 0, "")
	at(11*ms, KindKill, 1, 0, "")
	at(12*ms, KindRestart, 1, 0, "")
	at(12*ms, KindRecoveryBegin, 1, 0, "")
	at(12*ms, KindRestoreBegin, 1, 0, "")
	at(13*ms, KindRestoreEnd, 1, 0, "")
	at(14*ms, KindRecoveryEnd, 1, 0, "")
	at(14*ms, KindRecovered, 1, 0, "")

	// Rank 2: a completed checkpoint, then a coordinated-rollback restart
	// with no kill, and a determinant loss.
	at(15*ms, KindCkptBegin, 2, 0, "")
	at(16*ms, KindCkptEnd, 2, 1<<20, "")
	at(20*ms, KindRestart, 2, 0, "")
	at(20*ms, KindRecoveryBegin, 2, 0, "")
	at(20*ms, KindRestoreBegin, 2, 0, "")
	at(21*ms, KindRestoreEnd, 2, 0, "")
	at(21*ms, KindDetLoss, 2, 7, "")
	at(22*ms, KindRecoveryEnd, 2, 0, "")
	at(22*ms, KindRecovered, 2, 0, "")

	// Rank 3: suspected behind a partition, fenced, and finishing in the
	// middle of its recovery.
	at(30*ms, KindPartitionCut, -1, 0, "")
	at(31*ms, KindSuspect, 3, 0, "")
	at(33*ms, KindFenced, 3, 0, "")
	at(33*ms, KindRestart, 3, 0, "")
	at(33*ms, KindRecoveryBegin, 3, 0, "")
	at(33*ms, KindCollectBegin, 3, 0, "")
	at(35*ms, KindPartitionHeal, -1, 0, "")
	at(36*ms, KindFinished, 3, 0, "")

	// Fabric: a degrade and its clear; a partition and a degrade still
	// open at the end.
	at(40*ms, KindDegrade, -1, 0, "")
	at(45*ms, KindDegradeClear, -1, 0, "")
	at(50*ms, KindDegrade, -1, 2, "")
	at(50*ms, KindPartitionCut, -1, 1, "")

	// Services, the Event Logger and the gauges.
	at(55*ms, KindOutage, -1, int64(4*ms), "event-logger")
	at(56*ms, KindELBacklog, -1, 12, "")
	at(60*ms, KindGaugeHeldDets, -1, 100, "")
	at(60*ms, KindGaugeSenderLogBytes, -1, 4096, "")
	at(60*ms, KindGaugeELBacklog, -1, 3, "")
	at(60*ms, KindGaugeLiveRanks, -1, 3, "")

	// Ranks outside the deployment.
	at(61*ms, KindKill, 9, 0, "")
	at(61*ms, KindRecoveryBegin, 7, 0, "")
	at(61*ms, KindFenced, 9, 0, "")
	at(61*ms, KindRestart, -1, 0, "")

	// Rank 1 killed again and still recovering when the run ends.
	at(70*ms, KindKill, 1, 0, "")
	at(71*ms, KindRestart, 1, 0, "")
	at(71*ms, KindRecoveryBegin, 1, 0, "")
	at(71*ms, KindRestoreBegin, 1, 0, "")
	return events, 4, 80 * ms
}

// TestChromeTraceGolden holds the Chrome exporter to a recorded rendering
// of chromeScript, byte for byte.
func TestChromeTraceGolden(t *testing.T) {
	got := ChromeTrace(chromeScript())
	want, err := os.ReadFile("testdata/chrome.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		lo := max(i-80, 0)
		t.Fatalf("trace diverges at byte %d of %d (want %d):\n got …%s\nwant …%s",
			i, len(got), len(want), got[lo:min(i+80, len(got))], want[lo:min(i+80, len(want))])
	}
}
