package experiment

import (
	"strconv"
	"strings"
	"testing"

	"mpichv/internal/cluster"
	"mpichv/internal/harness"
	"mpichv/internal/workload"
)

func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(tab.Rows[row][col], "%"), 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric: %v", row, col, tab.Rows[row][col], err)
	}
	return v
}

func TestFig06aLatencyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("latency sweep regenerates a full figure")
	}
	tab := fig06aReport().Table
	if len(tab.Rows) != 8 {
		t.Fatalf("got %d rows, want 8", len(tab.Rows))
	}
	p4 := cell(t, tab, 0, 1)
	vdummy := cell(t, tab, 1, 1)
	vcEL := cell(t, tab, 2, 1)
	manEL := cell(t, tab, 3, 1)
	logEL := cell(t, tab, 4, 1)
	vcNo := cell(t, tab, 5, 1)
	manNo := cell(t, tab, 6, 1)
	logNo := cell(t, tab, 7, 1)

	if !(p4 < vdummy && vdummy < vcEL) {
		t.Errorf("P4 (%.1f) < Vdummy (%.1f) < causal+EL (%.1f) violated", p4, vdummy, vcEL)
	}
	// With the EL the three protocols are within a few percent of each other.
	if maxMin := (max3(vcEL, manEL, logEL) - min3(vcEL, manEL, logEL)) / vcEL; maxMin > 0.10 {
		t.Errorf("EL latencies should be close: %.2f %.2f %.2f", vcEL, manEL, logEL)
	}
	// Without the EL every protocol is slower than its EL counterpart.
	if !(vcNo > vcEL && manNo > manEL && logNo > logEL) {
		t.Errorf("no-EL must exceed EL: vc %.1f/%.1f man %.1f/%.1f log %.1f/%.1f",
			vcNo, vcEL, manNo, manEL, logNo, logEL)
	}
	// Graph-based no-EL protocols pay more than Vcausal no-EL (growing graph).
	if !(manNo > vcNo && logNo > vcNo) {
		t.Errorf("graph no-EL (%.1f, %.1f) should exceed Vcausal no-EL (%.1f)", manNo, logNo, vcNo)
	}
}

func TestFig06bBandwidthShape(t *testing.T) {
	if testing.Short() {
		t.Skip("bandwidth sweep is slow")
	}
	tab := fig06bReport().Table
	last := len(tab.Rows) - 1
	raw := cell(t, tab, last, 1)
	if raw < 85 || raw > 96 {
		t.Errorf("raw TCP peak bandwidth %.1f outside [85,96] Mbit/s", raw)
	}
	// Causal variants (columns 4..7) should be within 10%% of each other at 8M.
	for col := 5; col <= 7; col++ {
		if d := cell(t, tab, last, col) / cell(t, tab, last, 4); d < 0.9 || d > 1.1 {
			t.Errorf("causal bandwidth curves should coincide at large sizes (col %d ratio %.2f)", col, d)
		}
	}
}

func TestFig07Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid is slow")
	}
	tab := fig07Report().Table
	for i := range tab.Rows {
		vcEL, manEL, logEL := cell(t, tab, i, 2), cell(t, tab, i, 3), cell(t, tab, i, 4)
		vcNo, manNo, logNo := cell(t, tab, i, 5), cell(t, tab, i, 6), cell(t, tab, i, 7)
		name := tab.Rows[i][0] + "." + tab.Rows[i][1]
		// EL reduces piggyback volume for every protocol.
		if vcEL >= vcNo || manEL >= manNo || logEL >= logNo {
			t.Errorf("%s: EL must reduce piggyback volume (vc %.2f/%.2f man %.2f/%.2f log %.2f/%.2f)",
				name, vcEL, vcNo, manEL, manNo, logEL, logNo)
		}
		// Vcausal piggybacks the most without EL; LogOn outweighs Manetho.
		if vcNo < manNo {
			t.Errorf("%s: Vcausal no-EL (%.2f%%) should exceed Manetho no-EL (%.2f%%)", name, vcNo, manNo)
		}
		if logNo < manNo {
			t.Errorf("%s: LogOn no-EL (%.2f%%) should exceed Manetho no-EL (%.2f%%)", name, logNo, manNo)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("recovery grid is slow")
	}
	tab := fig10Report().Table
	for i := range tab.Rows {
		withEL, withoutEL := cell(t, tab, i, 2), cell(t, tab, i, 3)
		if withEL >= withoutEL {
			t.Errorf("%s.%s: recovery with EL (%.2fms) should beat without (%.2fms)",
				tab.Rows[i][0], tab.Rows[i][1], withEL, withoutEL)
		}
	}
}

func TestRunSmoke(t *testing.T) {
	res := harness.Run(&harness.SweepSpec{
		Name:      "smoke",
		Workloads: nasWorkloads([]workload.Spec{{Bench: "cg", Class: "A", NP: 4}}),
		Stacks:    []harness.Stack{{Label: "Manetho (EL)", Stack: cluster.StackVcausal, Reducer: "manetho", UseEL: true}},
	}, harness.Options{})
	cr := res.MustGet("cg.A.4", "Manetho (EL)", "base")
	if cr.Elapsed <= 0 || cr.Stats.AppMsgsSent == 0 {
		t.Fatal("smoke run failed")
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{Title: "T", Header: []string{"a", "bb"}, Notes: []string{"n"}}
	tab.AddRow("x", "1")
	out := tab.Render()
	for _, want := range []string{"== T ==", "a", "bb", "x", "1", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func max3(a, b, c float64) float64 {
	if b > a {
		a = b
	}
	if c > a {
		a = c
	}
	return a
}

func min3(a, b, c float64) float64 {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// TestExtELContributionSmokeShape encodes the EL-contribution claim on
// the deterministic smoke grid: under the identical correlated kill, the
// no-EL stack loses determinants in every witness-pair trial while the
// EL-enabled stack loses none.
func TestExtELContributionSmokeShape(t *testing.T) {
	rep := extELContributionSmokeReport()
	tab := rep.Table
	if len(tab.Rows) == 0 {
		t.Fatal("empty table")
	}
	row := tab.Rows[0] // witness-pair.3: [workload, Vcausal (EL), Vcausal (no EL)]
	if row[0] != "witness-pair.3" {
		t.Fatalf("first row is %q, want witness-pair.3", row[0])
	}
	if !strings.HasPrefix(row[1], "0/") {
		t.Errorf("EL cell %q should lose nothing", row[1])
	}
	if !strings.HasPrefix(row[2], "2/2 lost") {
		t.Errorf("no-EL cell %q should lose every trial", row[2])
	}
	// The raw sweep behind the table records the typed outcome, not an
	// error, for the lost cells.
	storm := rep.Sweeps[1]
	cr := storm.Get("witness-pair.3", "Vcausal (no EL)", "storm-1")
	if cr == nil || cr.Err != "" || cr.Outcome != cluster.OutcomeDeterminantLoss {
		t.Fatalf("no-EL storm cell: %+v", cr)
	}
	if cr.DetLoss == nil || cr.DetLoss.Victim != 0 {
		t.Fatalf("missing diagnostics: %+v", cr.DetLoss)
	}
}

// TestFig08Shape encodes Figure 8(b)'s claim: the Event Logger never
// makes causality management costlier (each reducer's EL column is at or
// below its no-EL column in every row), and the cost peaks at LU.16
// without the EL.
func TestFig08Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid is slow")
	}
	tab := fig08bReport().Table
	peak, peakRow, peakCol := -1.0, 0, 0
	for i, row := range tab.Rows {
		for r := 0; r < 3; r++ {
			if el, noEL := cell(t, tab, i, 2+r), cell(t, tab, i, 5+r); el > noEL {
				t.Errorf("%s.%s %s: EL %.2f%% above no-EL %.2f%%", row[0], row[1], tab.Header[2+r], el, noEL)
			}
		}
		for col := 2; col < len(row); col++ {
			if v := cell(t, tab, i, col); v > peak {
				peak, peakRow, peakCol = v, i, col
			}
		}
	}
	if row := tab.Rows[peakRow]; row[0]+" "+row[1] != "lu.A 16" || peakCol < 5 {
		t.Errorf("largest cell %.2f%% at %s %s, %s; want lu.A 16 in a no-EL column",
			peak, row[0], row[1], tab.Header[peakCol])
	}
}

// TestExtPartitionSmokeShape encodes the partition smoke's claims: both
// stacks complete both scenarios, the false suspicion is confirmed once,
// and the crash-stop row counts exactly one kill.
func TestExtPartitionSmokeShape(t *testing.T) {
	rep := extPartitionSmokeReport()
	for _, cr := range rep.Sweeps[1].Cells {
		if !cr.Completed || cr.Err != "" {
			t.Errorf("%s: completed %v, outcome %q, err %q", cr.ID, cr.Completed, cr.Outcome, cr.Err)
		}
	}
	want := map[string]string{"kill": " (1)", "false-suspect": " (fs 1,"}
	tab := rep.Table
	if len(tab.Rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(tab.Rows), len(want))
	}
	for _, row := range tab.Rows {
		note, ok := want[row[1]]
		if !ok {
			t.Fatalf("unexpected scenario row %q", row[1])
		}
		for col, c := range row[2:] {
			if !strings.Contains(c, note) {
				t.Errorf("%s %s: cell %q lacks %q", row[1], tab.Header[2+col], c, note)
			}
		}
	}
}
