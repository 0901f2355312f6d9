package experiment

import (
	"strings"
	"testing"

	"mpichv/internal/cluster"
	"mpichv/internal/harness"
	"mpichv/internal/sim"
	"mpichv/internal/workload"
)

// TestFig06aLatencyShape encodes Figure 6(a)'s claims on each stack's
// one-way ping-pong latency, read from the sweep.
func TestFig06aLatencyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("latency sweep regenerates a full figure")
	}
	res := fig06aReport(harness.Options{}).Sweeps[0]
	lat := func(stack string) float64 {
		return completed(t, res, "pingpong.1B", stack, "base").Elapsed.Microseconds() / (2 * fig06aReps)
	}
	p4, vdummy := lat("P4"), lat("Vdummy")
	vcEL, manEL, logEL := lat("Vcausal (EL)"), lat("Manetho (EL)"), lat("LogOn (EL)")
	vcNo, manNo, logNo := lat("Vcausal (no EL)"), lat("Manetho (no EL)"), lat("LogOn (no EL)")

	if !(p4 < vdummy && vdummy < vcEL) {
		t.Errorf("P4 (%.1f) < Vdummy (%.1f) < causal+EL (%.1f) violated", p4, vdummy, vcEL)
	}
	// With the EL the three protocols are within a few percent of each other.
	if maxMin := (max(vcEL, manEL, logEL) - min(vcEL, manEL, logEL)) / vcEL; maxMin > 0.10 {
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

// TestFig06bBandwidthShape encodes Figure 6(b)'s claims at the largest
// message size, read from the sweep: raw TCP peaks near the wire's
// capacity and the causal stacks share one curve.
func TestFig06bBandwidthShape(t *testing.T) {
	if testing.Short() {
		t.Skip("bandwidth sweep is slow")
	}
	res := fig06bReport(harness.Options{}).Sweeps[0]
	size := bandwidthSizes[len(bandwidthSizes)-1]
	mbps := func(stack string) float64 {
		return pingPongMbps(size, completed(t, res, sizeLabel(size), stack, "base").Elapsed)
	}
	if raw := mbps("RAW TCP"); raw < 85 || raw > 96 {
		t.Errorf("raw TCP peak bandwidth %.1f outside [85,96] Mbit/s", raw)
	}
	// The causal stacks should be within 10% of Vcausal (EL) at 8M.
	for _, stack := range []string{"Manetho (EL)", "Manetho (no EL)", "LogOn (no EL)"} {
		if d := mbps(stack) / mbps("Vcausal (EL)"); d < 0.9 || d > 1.1 {
			t.Errorf("causal bandwidth curves should coincide at large sizes (%s ratio %.2f)", stack, d)
		}
	}
}

// TestFig07Shape encodes Figure 7's claims on the sweep's raw shares: the
// EL shrinks every reducer's piggyback share, and without it Vcausal
// piggybacks at least Manetho's share, and so does LogOn.
func TestFig07Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid is slow")
	}
	res := fig07Report(harness.Options{}).Sweeps[0]
	for _, spec := range fig07Specs {
		w := spec.String()
		share := func(stack string) float64 { return completed(t, res, w, stack, "base").Stats.PiggybackShare() }
		for _, r := range reducers {
			if el, noEL := share(r+" (EL)"), share(r+" (no EL)"); el >= noEL {
				t.Errorf("%s %s: EL piggyback share %.3g not below no-EL %.3g", w, r, el, noEL)
			}
		}
		if vc, man, log := share("Vcausal (no EL)"), share("Manetho (no EL)"), share("LogOn (no EL)"); vc < man || log < man {
			t.Errorf("%s without EL: Vcausal %.3g, Manetho %.3g, LogOn %.3g; want Vcausal >= Manetho <= LogOn", w, vc, man, log)
		}
	}
}

// TestFig08Shape encodes Figure 8(b)'s claims: the Event Logger never
// makes causality management costlier, and the cost peaks at lu.A.16
// without the EL.
func TestFig08Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid is slow")
	}
	res := fig08Report(harness.Options{}).Sweeps[0]
	peak, peakCell := -1.0, ""
	for _, spec := range fig08Specs {
		w := spec.String()
		cost := func(stack string) float64 {
			cr := completed(t, res, w, stack, "base")
			return float64(cr.Stats.SendPiggybackTime+cr.Stats.RecvPiggybackTime) / float64(cr.Elapsed*sim.Time(cr.NP))
		}
		for _, r := range reducers {
			el, noEL := cost(r+" (EL)"), cost(r+" (no EL)")
			if el > noEL {
				t.Errorf("%s %s: EL cost %.3g above no-EL %.3g", w, r, el, noEL)
			}
			if el > peak {
				peak, peakCell = el, w+" "+r+" (EL)"
			}
			if noEL > peak {
				peak, peakCell = noEL, w+" "+r+" (no EL)"
			}
		}
	}
	if !strings.HasPrefix(peakCell, "lu.A.16 ") || !strings.HasSuffix(peakCell, "(no EL)") {
		t.Errorf("largest cost %.3g at %s; want lu.A.16 in a no-EL column", peak, peakCell)
	}
}

// TestFig10Shape encodes Figure 10's claim: recovery with the EL is
// faster than without.
func TestFig10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("recovery grid is slow")
	}
	crashed := fig10Report(harness.Options{}).Sweeps[1]
	for _, spec := range groupSpecs(fig10Groups) {
		w := spec.String()
		recovery := func(stack string) float64 {
			return completed(t, crashed, w, stack, "mid-crash").Probes[harness.ProbeRecoveryEventNs]
		}
		if el, noEL := recovery("with EL"), recovery("without EL"); el >= noEL {
			t.Errorf("%s: recovery with EL %.0f ns not below without %.0f ns", w, el, noEL)
		}
	}
}

// reducers names the causal stacks' reducers in column order.
var reducers = []string{"Vcausal", "Manetho", "LogOn"}

// completed returns res's cell at (workload, stack, variant), failing the
// test when the sweep lacks it or the cell did not complete.
func completed(t *testing.T, res *harness.Results, workload, stack, variant string) *harness.CellResult {
	t.Helper()
	cr := res.Get(workload, stack, variant)
	if cr == nil || !cr.Completed {
		t.Fatalf("%s: no completed cell %s|%s|%s", res.Name, workload, stack, variant)
	}
	return cr
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

// TestExtELContributionSmokeShape encodes the EL-contribution claim on
// the deterministic smoke grid: under the identical correlated kill, the
// no-EL stack loses determinants in every witness-pair trial while the
// EL-enabled stack loses none.
func TestExtELContributionSmokeShape(t *testing.T) {
	rep := extELContributionSmokeReport(harness.Options{})
	tab := rep.Tables[0]
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

// TestExtPartitionSmokeShape encodes the partition smoke's claims: both
// stacks complete both scenarios, the false suspicion is confirmed once,
// and the crash-stop row counts exactly one kill.
func TestExtPartitionSmokeShape(t *testing.T) {
	rep := extPartitionSmokeReport(harness.Options{})
	for _, cr := range rep.Sweeps[1].Cells {
		if !cr.Completed || cr.Err != "" {
			t.Errorf("%s: completed %v, outcome %q, err %q", cr.ID, cr.Completed, cr.Outcome, cr.Err)
		}
	}
	want := map[string]string{"kill": " (1)", "false-suspect": " (fs 1,"}
	tab := rep.Tables[0]
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
