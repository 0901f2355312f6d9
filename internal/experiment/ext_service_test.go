package experiment

import (
	"bytes"
	"testing"

	"mpichv/internal/harness"
)

// runServiceSmoke regenerates the ext-service smoke grid under the given
// worker-pool width and returns the report plus its serialized sweep.
func runServiceSmoke(t *testing.T, parallel int) (*Report, []byte) {
	t.Helper()
	rep := extServiceSmokeReport(harness.Options{Parallel: parallel})
	if len(rep.Sweeps) != 1 {
		t.Fatalf("smoke report has %d sweeps, want 1", len(rep.Sweeps))
	}
	data, err := rep.Sweeps[0].JSON()
	if err != nil {
		t.Fatal(err)
	}
	return rep, data
}

// TestExtServiceSmokeDeterministic pins the harness contract on the
// faulted service grid: -parallel 1 and -parallel 4 must produce
// byte-identical structured results (cells are independent
// single-threaded simulations; the pool only changes wall-clock).
func TestExtServiceSmokeDeterministic(t *testing.T) {
	_, seq := runServiceSmoke(t, 1)
	_, par := runServiceSmoke(t, 4)
	if !bytes.Equal(seq, par) {
		t.Fatal("ext-service-smoke results differ between -parallel 1 and -parallel 4")
	}
}

// TestExtServiceSmokeShape encodes the SLO claims on the deterministic
// smoke grid: clean cells drop nothing; storm cells dip below full
// availability with a p99 at or above their p50; and within each stack
// the p99 tail degrades monotonically from fault-free to storm.
func TestExtServiceSmokeShape(t *testing.T) {
	rep, _ := runServiceSmoke(t, 0)
	res := rep.Sweeps[0]
	for _, stack := range []string{"Vcausal (EL)", "Manetho (EL)"} {
		clean := res.Get("service.4", stack, "fault-free")
		storm := res.Get("service.4", stack, "storm")
		if clean == nil || clean.Err != "" || storm == nil || storm.Err != "" {
			t.Fatalf("%s: missing cells: clean=%+v storm=%+v", stack, clean, storm)
		}
		if d := clean.Probes[harness.ProbeDroppedRequests]; d != 0 {
			t.Errorf("%s fault-free: dropped %v requests, want exactly 0", stack, d)
		}
		if av := storm.Probes[harness.ProbeAvailability]; av >= 1 {
			t.Errorf("%s storm: availability %v, want < 1", stack, av)
		}
		p50 := storm.Probes[harness.ProbeP50Latency]
		p99 := storm.Probes[harness.ProbeP99Latency]
		if p50 <= 0 || p99 < p50 {
			t.Errorf("%s storm: p50 %v, p99 %v; want 0 < p50 <= p99", stack, p50, p99)
		}
		if cp99 := clean.Probes[harness.ProbeP99Latency]; p99 < cp99 {
			t.Errorf("%s: storm p99 %v below fault-free p99 %v", stack, p99, cp99)
		}
	}
}

// TestExtServiceSmokeRaceWide exists for the CI race job: `go test -race
// -short ./...` predates harness parallelism over service cells, so this
// test (deliberately not skipped in -short) pushes the whole smoke grid
// through a worker pool wider than the grid's natural parallelism, with
// tracing enabled so the per-cell trace writers run concurrently too.
// The functional assertions are deliberately light — shape claims live in
// TestExtServiceSmokeShape; what matters here is that the race detector
// sees the interleavings. Traced results must still be byte-identical to
// the untraced sequential run (tracing only observes).
func TestExtServiceSmokeRaceWide(t *testing.T) {
	_, seq := runServiceSmoke(t, 1)

	rep := extServiceSmokeReport(harness.Options{Parallel: 8, TraceDir: t.TempDir()})
	if len(rep.Sweeps) != 1 {
		t.Fatalf("smoke report has %d sweeps, want 1", len(rep.Sweeps))
	}
	for _, err := range rep.Sweeps[0].Errs() {
		t.Error(err)
	}
	wide, err := rep.Sweeps[0].JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seq, wide) {
		t.Fatal("traced -parallel 8 results differ from untraced -parallel 1")
	}
}
