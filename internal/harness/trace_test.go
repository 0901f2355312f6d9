package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpichv/internal/cluster"
	"mpichv/internal/faultplan"
	"mpichv/internal/sim"
	"mpichv/internal/workload"
)

// tracedSpec sweeps the witness-pair topology through three regimes —
// fault-free, a correlated kill, and a healing partition with a false
// suspicion — so the timelines carry lifecycle, recovery, fabric and
// gauge events.
func tracedSpec() *SweepSpec {
	kills := &faultplan.Plan{
		Correlated: []faultplan.CorrelatedKill{{At: 8 * sim.Millisecond, Ranks: []int{0, 1}}},
	}
	parts := &faultplan.Plan{
		Partitions: []faultplan.Partition{{
			At:           8 * sim.Millisecond,
			Groups:       [][]int{{0}, {1, 2}},
			Duration:     7 * sim.Millisecond,
			SuspectAfter: 2 * sim.Millisecond,
		}},
	}
	return &SweepSpec{
		Name: "trace-grid",
		Workloads: []Workload{{
			Key:  "wp.3",
			Make: func() *workload.Instance { return workload.BuildWitnessPair(40) },
		}},
		Stacks: []Stack{
			{Key: "vc-el", Stack: cluster.StackVcausal, Reducer: "vcausal", UseEL: true},
		},
		Variants: []Variant{
			{Key: "base"},
			{Key: "killed", Faults: kills, RestartDelay: 5 * sim.Millisecond},
			{Key: "suspect", Faults: parts, RestartDelay: 3 * sim.Millisecond},
		},
		BaseSeed:   42,
		MaxVirtual: 30 * sim.Minute,
		Probes:     []string{ProbeMTTR, ProbeDowntime, ProbeAvailability},
	}
}

// readDir returns the directory's file names and contents.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}

// TestTraceFilesDeterministicAcrossWorkers: a traced sweep writes one
// JSONL and one Chrome trace file per cell, byte-identical between
// -parallel 1 and -parallel N, and tracing does not change the results.
func TestTraceFilesDeterministicAcrossWorkers(t *testing.T) {
	dirSeq, dirPar := t.TempDir(), t.TempDir()
	seq := Run(tracedSpec(), Options{Parallel: 1, TraceDir: dirSeq})
	Run(tracedSpec(), Options{Parallel: 4, TraceDir: dirPar})
	for _, cr := range seq.Cells {
		if cr.Err != "" {
			t.Fatalf("cell %q errored: %s", cr.ID, cr.Err)
		}
	}

	filesSeq, filesPar := readDir(t, filepath.Join(dirSeq, "trace-grid")), readDir(t, filepath.Join(dirPar, "trace-grid"))
	wantFiles := 2 * len(seq.Cells) // .jsonl + .trace.json per cell
	if len(filesSeq) != wantFiles || len(filesPar) != wantFiles {
		t.Fatalf("got %d/%d trace files, want %d", len(filesSeq), len(filesPar), wantFiles)
	}
	for name, data := range filesSeq {
		other, ok := filesPar[name]
		if !ok {
			t.Fatalf("parallel run missing trace file %q", name)
		}
		if !bytes.Equal(data, other) {
			t.Fatalf("trace file %q differs between -parallel 1 and -parallel 4", name)
		}
	}

	// Each regime's timeline tells its story.
	timeline := func(id string) []byte {
		data := filesSeq[sanitizeFilename(id)+".jsonl"]
		if len(data) == 0 {
			t.Fatalf("cell %q: empty timeline", id)
		}
		return data
	}
	contains := func(data []byte, kind string) bool {
		return bytes.Contains(data, []byte(`"kind":"`+kind+`"`))
	}
	base := timeline("wp.3|vc-el|base")
	for _, kind := range []string{"kill", "suspect", "partition-cut"} {
		if contains(base, kind) {
			t.Errorf("fault-free timeline has a %q event", kind)
		}
	}
	if !contains(base, "gauge-live-ranks") || !contains(base, "finished") {
		t.Error("fault-free timeline missing gauges or completions")
	}
	killed := timeline("wp.3|vc-el|killed")
	for _, kind := range []string{"kill", "restart", "recovered", "recovery-begin", "recovery-end"} {
		if !contains(killed, kind) {
			t.Errorf("killed timeline missing %q", kind)
		}
	}
	suspect := timeline("wp.3|vc-el|suspect")
	for _, kind := range []string{"partition-cut", "partition-heal", "suspect", "fenced"} {
		if !contains(suspect, kind) {
			t.Errorf("partition timeline missing %q", kind)
		}
	}
	for _, cr := range seq.Cells {
		if !bytes.Contains(filesSeq[sanitizeFilename(cr.ID)+".trace.json"], []byte(`"traceEvents"`)) {
			t.Errorf("cell %q: malformed chrome trace", cr.ID)
		}
	}

	// Tracing only observes: results match an untraced sweep exactly.
	untraced := Run(tracedSpec(), Options{Parallel: 1})
	a, err := seq.JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := untraced.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("tracing changed the sweep results")
	}
}

// TestTraceDirPerSweep: two sweeps that share a cell ID and a TraceDir
// each keep their own timeline, in a subdirectory named after the sweep,
// instead of the later sweep overwriting the earlier one's files.
func TestTraceDirPerSweep(t *testing.T) {
	dir := t.TempDir()
	first := tracedSpec()
	first.Name, first.Variants = "first", first.Variants[:1]
	second := tracedSpec()
	second.Name = "second"
	// Same cell ID as first's fault-free cell, but with a kill.
	second.Variants = []Variant{{Key: "base", Faults: tracedSpec().Variants[1].Faults, RestartDelay: 5 * sim.Millisecond}}
	for _, spec := range []*SweepSpec{first, second} {
		for _, cr := range Run(spec, Options{Parallel: 1, TraceDir: dir}).Cells {
			if cr.Err != "" {
				t.Fatalf("%s: cell %q errored: %s", spec.Name, cr.ID, cr.Err)
			}
		}
	}
	name := sanitizeFilename("wp.3|vc-el|base") + ".jsonl"
	kill := []byte(`"kind":"kill"`)
	for sweep, wantKill := range map[string]bool{"first": false, "second": true} {
		files := readDir(t, filepath.Join(dir, sweep))
		if len(files) != 2 {
			t.Errorf("%s: %d trace files, want 2", sweep, len(files))
		}
		if got := bytes.Contains(files[name], kill); got != wantKill {
			t.Errorf("%s: timeline has a kill = %v, want %v", sweep, got, wantKill)
		}
	}
}

// TestAvailabilityProbes: faulted cells report positive MTTR/downtime and
// an availability fraction strictly inside (0,1); the fault-free cell is
// fully available.
func TestAvailabilityProbes(t *testing.T) {
	res := Run(tracedSpec(), Options{Parallel: 2})
	for i := range res.Cells {
		cr := &res.Cells[i]
		if cr.Err != "" {
			t.Fatalf("cell %q errored: %s", cr.ID, cr.Err)
		}
		mttr, down, avail := cr.Probes[ProbeMTTR], cr.Probes[ProbeDowntime], cr.Probes[ProbeAvailability]
		if strings.HasSuffix(cr.ID, "|base") {
			if mttr != 0 || down != 0 || avail != 1 {
				t.Errorf("cell %q: fault-free probes mttr=%v down=%v avail=%v", cr.ID, mttr, down, avail)
			}
			continue
		}
		if mttr <= 0 || down <= 0 {
			t.Errorf("cell %q: mttr=%v downtime=%v, want positive", cr.ID, mttr, down)
		}
		if avail <= 0 || avail >= 1 {
			t.Errorf("cell %q: availability=%v, want in (0,1)", cr.ID, avail)
		}
	}
}

func TestSanitizeFilename(t *testing.T) {
	got := sanitizeFilename("cg.A.2|vc-el|faulted @ 5%")
	want := "cg.A.2_vc-el_faulted___5_"
	if got != want {
		t.Fatalf("sanitizeFilename = %q, want %q", got, want)
	}
}
