package harness

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"mpichv/internal/cluster"
	"mpichv/internal/daemon"
	"mpichv/internal/event"
	"mpichv/internal/failure"
	"mpichv/internal/sim"
	"mpichv/internal/workload"
)

// smallSpec is a fast grid exercising both axes and the probe machinery:
// 2 workloads × 2 stacks × 2 variants = 8 cells.
func smallSpec() *SweepSpec {
	return &SweepSpec{
		Name: "test-grid",
		Workloads: []Workload{
			{Key: "cg.A.2", Spec: workload.Spec{Bench: "cg", Class: "A", NP: 2}},
			{Key: "pp", Make: func() *workload.Instance { return workload.BuildPingPong(1<<10, 50) }},
		},
		Stacks: []Stack{
			{Key: "vc-el", Label: "Vcausal (EL)", Stack: cluster.StackVcausal, Reducer: "vcausal", UseEL: true},
			{Key: "man", Label: "Manetho (no EL)", Stack: cluster.StackVcausal, Reducer: "manetho"},
		},
		Variants: []Variant{
			{Key: "base"},
			{Key: "seeded"},
		},
		BaseSeed: 42,
		Probes:   []string{ProbeELBacklog},
	}
}

func TestCellsExpansion(t *testing.T) {
	spec := smallSpec()
	cells := spec.Cells()
	if len(cells) != 8 {
		t.Fatalf("got %d cells, want 8", len(cells))
	}
	// Grid order: workloads outermost, variants innermost.
	wantIDs := []string{
		"cg.A.2|vc-el|base", "cg.A.2|vc-el|seeded",
		"cg.A.2|man|base", "cg.A.2|man|seeded",
		"pp|vc-el|base", "pp|vc-el|seeded",
		"pp|man|base", "pp|man|seeded",
	}
	seen := map[int64]bool{}
	for i, c := range cells {
		if c.ID != wantIDs[i] {
			t.Errorf("cell %d ID = %q, want %q", i, c.ID, wantIDs[i])
		}
		if c.Index != i {
			t.Errorf("cell %d Index = %d", i, c.Index)
		}
		if c.Config.Seed == 0 {
			t.Errorf("cell %q: BaseSeed set but Config.Seed is 0", c.ID)
		}
		if seen[c.Config.Seed] {
			t.Errorf("cell %q: derived seed %d collides", c.ID, c.Config.Seed)
		}
		seen[c.Config.Seed] = true
	}
	// Seed derivation is deterministic.
	again := spec.Cells()
	for i := range cells {
		if cells[i].Config.Seed != again[i].Config.Seed {
			t.Errorf("cell %d seed not deterministic", i)
		}
	}
	// Without BaseSeed, cells record the cluster default seed explicitly.
	spec.BaseSeed = 0
	for _, c := range spec.Cells() {
		if c.Config.Seed != 1 {
			t.Errorf("cell %q: Seed = %d without BaseSeed, want cluster default 1", c.ID, c.Config.Seed)
		}
	}
}

// TestCellsBuildsMakeOnce: expanding a grid reads a Make workload's NP
// from one probe build, however many stacks and variants it crosses.
func TestCellsBuildsMakeOnce(t *testing.T) {
	builds := 0
	spec := smallSpec()
	spec.Workloads = []Workload{{Key: "pp", Make: func() *workload.Instance {
		builds++
		return workload.BuildPingPong(1<<10, 50)
	}}}
	if cells := spec.Cells(); len(cells) != 4 {
		t.Fatalf("got %d cells, want 4 (2 stacks x 2 variants)", len(cells))
	}
	if builds != 1 {
		t.Fatalf("Cells built the workload %d times, want 1", builds)
	}
}

func TestDuplicateCellIDsPanic(t *testing.T) {
	spec := smallSpec()
	spec.Variants = []Variant{{Key: "same"}, {Key: "same"}}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "duplicate cell ID") {
			t.Fatalf("Cells() recover = %v, want duplicate-ID panic", r)
		}
	}()
	spec.Cells()
}

// TestDeterministicJSON: the same spec serializes byte-identically across
// repeated parallel runs — the contract that makes BENCH/result snapshots
// diffable.
func TestDeterministicJSON(t *testing.T) {
	run := func() []byte {
		res := Run(smallSpec(), Options{Parallel: 4})
		data, err := res.JSON()
		if err != nil {
			t.Fatalf("JSON: %v", err)
		}
		return data
	}
	first := run()
	second := run()
	if !bytes.Equal(first, second) {
		t.Fatalf("JSON output differs between identical runs:\n%s\n---\n%s", first, second)
	}
}

// TestParallelEqualsSequential: -parallel 1 and -parallel N produce
// identical results cell-for-cell.
func TestParallelEqualsSequential(t *testing.T) {
	seq := Run(smallSpec(), Options{Parallel: 1})
	par := Run(smallSpec(), Options{Parallel: 8})
	seqJSON, err := seq.JSON()
	if err != nil {
		t.Fatal(err)
	}
	parJSON, err := par.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqJSON, parJSON) {
		t.Fatal("parallel run differs from sequential run")
	}
	for i := range seq.Cells {
		if seq.Cells[i].Err != "" {
			t.Errorf("cell %q errored: %s", seq.Cells[i].ID, seq.Cells[i].Err)
		}
		if !seq.Cells[i].Completed {
			t.Errorf("cell %q did not complete", seq.Cells[i].ID)
		}
	}
}

func TestProgressAndOrdering(t *testing.T) {
	var mu sync.Mutex
	var events []Progress
	res := Run(smallSpec(), Options{
		Parallel: 4,
		OnProgress: func(p Progress) {
			mu.Lock()
			events = append(events, p)
			mu.Unlock()
		},
	})
	if len(events) != len(res.Cells) {
		t.Fatalf("got %d progress events, want %d", len(events), len(res.Cells))
	}
	for i, ev := range events {
		if ev.Done != i+1 || ev.Total != len(res.Cells) {
			t.Errorf("event %d: Done=%d Total=%d", i, ev.Done, ev.Total)
		}
	}
	// Results are in grid order regardless of completion order.
	for i, cr := range res.Cells {
		if cr.Index != i {
			t.Errorf("result %d has Index %d", i, cr.Index)
		}
	}
	// Lookup by coordinates works.
	if cr := res.Get("cg.A.2", "vc-el", "base"); cr == nil || cr.ID != "cg.A.2|vc-el|base" {
		t.Error("Get by coordinates failed")
	}
	if res.Get("cg.A.2", "vc-el", "nope") != nil {
		t.Error("Get returned a cell for unknown coordinates")
	}
}

// ring is an np-rank workload of one message around a ring.
func ring(np int) Workload {
	return Workload{Key: fmt.Sprintf("ring.%d", np), Make: func() *workload.Instance {
		progs := make([]failure.Program, np)
		for r := range progs {
			progs[r] = func(n *daemon.Node) {
				n.Send(event.Rank((r+1)%np), 0, 64)
				n.Recv(event.Rank((r+np-1)%np), 0)
			}
		}
		return &workload.Instance{Spec: workload.Spec{Bench: "custom", NP: np}, Programs: progs}
	}}
}

// TestDispatchOrder: one worker takes the cells largest NP first, ties in
// grid order, while results stay in grid order and byte-identical at any
// worker count.
func TestDispatchOrder(t *testing.T) {
	spec := &SweepSpec{
		Name:      "dispatch",
		Workloads: []Workload{ring(4), ring(2), ring(8)},
		Stacks: []Stack{
			{Key: "vc-el", Stack: cluster.StackVcausal, Reducer: "vcausal", UseEL: true},
			{Key: "man", Stack: cluster.StackVcausal, Reducer: "manetho"},
			{Key: "logon", Stack: cluster.StackVcausal, Reducer: "logon"},
		},
	}
	var got []string
	res := Run(spec, Options{Parallel: 1, OnProgress: func(p Progress) { got = append(got, p.Cell.ID) }})
	want := []string{
		"ring.8|vc-el|base", "ring.8|man|base", "ring.8|logon|base",
		"ring.4|vc-el|base", "ring.4|man|base", "ring.4|logon|base",
		"ring.2|vc-el|base", "ring.2|man|base", "ring.2|logon|base",
	}
	if !slices.Equal(got, want) {
		t.Errorf("dispatch order %v, want %v", got, want)
	}
	first, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 3} {
		res := Run(spec, Options{Parallel: p})
		for i, cr := range res.Cells {
			if cr.Index != i || !cr.Completed {
				t.Errorf("parallel %d: result %d is cell %d (%q), completed %v", p, i, cr.Index, cr.ID, cr.Completed)
			}
		}
		if data, err := res.JSON(); err != nil || !bytes.Equal(data, first) {
			t.Errorf("parallel %d: results differ from the first run (err %v)", p, err)
		}
	}
}

func TestProbesCollected(t *testing.T) {
	res := Run(smallSpec(), Options{Parallel: 2})
	cr := res.MustGet("cg.A.2", "vc-el", "base")
	if _, ok := cr.Probes[ProbeELBacklog]; !ok {
		t.Error("EL backlog probe missing")
	}
	// No-EL stack still reports the probe (as zero).
	if v := res.MustGet("cg.A.2", "man", "base").Probes[ProbeELBacklog]; v != 0 {
		t.Errorf("no-EL backlog = %v, want 0", v)
	}
}

// TestCellPanicBecomesError: a broken cell records its failure and the
// rest of the sweep completes.
func TestCellPanicBecomesError(t *testing.T) {
	var cellErrs []Progress
	spec := &SweepSpec{
		Name:      "bad-stack",
		Workloads: []Workload{{Key: "cg.A.2", Spec: workload.Spec{Bench: "cg", Class: "A", NP: 2}}},
		Stacks: []Stack{
			{Key: "bogus", Stack: "no-such-stack"},
			{Key: "ok", Stack: cluster.StackVdummy},
		},
	}
	res := Run(spec, Options{OnProgress: func(p Progress) {
		if p.Err != "" {
			cellErrs = append(cellErrs, p)
		}
	}})
	bad := res.Get("cg.A.2", "bogus", "base")
	if bad == nil || !strings.Contains(bad.Err, "unknown stack") {
		t.Fatalf("bogus cell error = %q, want unknown-stack panic", bad.Err)
	}
	if len(cellErrs) != 1 || cellErrs[0].Cell.ID != bad.ID {
		t.Errorf("OnProgress reported failures %v, want exactly the bogus cell", cellErrs)
	}
	if ok := res.Get("cg.A.2", "ok", "base"); ok == nil || !ok.Completed || ok.Err != "" {
		t.Error("healthy cell should complete despite a sibling panic")
	}
	if errs := res.Errs(); len(errs) != 1 {
		t.Errorf("Errs() = %v, want 1 error", errs)
	}
}

// crossedRecv is the smallest deadlock: rank 0 computes 3 ms and sends
// once, then each rank waits for a message the other never sends.
func crossedRecv() *workload.Instance {
	return &workload.Instance{
		Spec: workload.Spec{Bench: "custom", NP: 2},
		Programs: []failure.Program{
			func(n *daemon.Node) {
				n.Compute(3 * sim.Millisecond)
				n.Send(1, 0, 64)
				n.Recv(1, 1)
			},
			func(n *daemon.Node) {
				n.Recv(0, 0)
				n.Recv(0, 1)
			},
		},
	}
}

// TestDeadlockOutcome: a run whose event queue drains with ranks still
// blocked ends in deadlock on every stack, decided in virtual time with no
// option set and in well under a second of host time. Traced, it ends at
// the same virtual time as untraced: the gauge sampler's ticks do not move
// the end of a run.
func TestDeadlockOutcome(t *testing.T) {
	spec := &SweepSpec{
		Name:      "deadlock",
		Workloads: []Workload{{Key: "crossed-recv", Make: crossedRecv}},
		Stacks: []Stack{
			{Key: "vc-el", Stack: cluster.StackVcausal, Reducer: "vcausal", UseEL: true},
			{Key: "man", Stack: cluster.StackVcausal, Reducer: "manetho"},
			{Key: "pess", Stack: cluster.StackPessimistic},
			{Key: "coord", Stack: cluster.StackCoordinated},
			{Key: "vdummy", Stack: cluster.StackVdummy},
		},
	}
	untraced := Run(spec, Options{OnProgress: func(p Progress) {
		if p.Wall >= time.Second {
			t.Errorf("cell %q took %v of host time to deadlock", p.Cell.ID, p.Wall)
		}
	}})
	for _, cr := range untraced.Cells {
		if cr.Outcome != cluster.OutcomeDeadlock || cr.Completed || cr.Err != "" {
			t.Errorf("cell %q: outcome %q, completed %v, err %q; want deadlock", cr.ID, cr.Outcome, cr.Completed, cr.Err)
		}
	}
	traced := Run(spec, Options{TraceDir: t.TempDir()})
	a, err := untraced.JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := traced.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("traced results differ from untraced:\nuntraced: %s\ntraced:   %s", a, b)
	}
}

func TestCSVShape(t *testing.T) {
	res := Run(smallSpec(), Options{Parallel: 2})
	out, err := res.CSV()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 1+len(res.Cells) {
		t.Fatalf("CSV has %d lines, want header + %d cells", len(lines), len(res.Cells))
	}
	if !strings.HasPrefix(lines[0], "sweep,index,id,workload,stack,variant,np,seed,completed,outcome,elapsed_ns,mflops") {
		t.Errorf("unexpected CSV header: %s", lines[0])
	}
	if !strings.Contains(lines[0], ProbeELBacklog) {
		t.Errorf("CSV header missing probe column: %s", lines[0])
	}
	// Determinism extends to CSV.
	again, err := Run(smallSpec(), Options{Parallel: 1}).CSV()
	if err != nil {
		t.Fatal(err)
	}
	if out != again {
		t.Error("CSV output differs between runs")
	}
}

// TestTuneHook: the cross-axis escape hatch sees and can adjust every
// cell.
func TestTuneHook(t *testing.T) {
	spec := smallSpec()
	spec.Tune = func(c *Cell) {
		if c.Stack.Key == "man" {
			c.Config.RestartDelay = 123
		}
	}
	for _, c := range spec.Cells() {
		want := int64(0)
		if c.Stack.Key == "man" {
			want = 123
		}
		if int64(c.Config.RestartDelay) != want {
			t.Errorf("cell %q RestartDelay = %d, want %d", c.ID, c.Config.RestartDelay, want)
		}
	}
}

// TestRunLeavesNoGoroutines: every cell's simulated processes are torn
// down with the cell, however it ended — completed after a recovery, cut
// at its virtual cap with every rank mid-run, or aborted by a panic in a
// rank's program — so a sweep hands back the goroutines (and, through
// their stacks, the clusters) it used.
func TestRunLeavesNoGoroutines(t *testing.T) {
	boom := func() *workload.Instance {
		in := workload.BuildWitnessPair(40)
		in.Programs[2] = func(n *daemon.Node) {
			n.Compute(2 * sim.Millisecond)
			panic("boom")
		}
		return in
	}
	spec := &SweepSpec{
		Name: "teardown",
		Workloads: []Workload{
			{Key: "cg.A.2", Spec: workload.Spec{Bench: "cg", Class: "A", NP: 2}},
			{Key: "boom", Make: boom},
		},
		Stacks: []Stack{{Key: "vc", Stack: cluster.StackVcausal, Reducer: "vcausal", UseEL: true}},
		Variants: []Variant{
			{Key: "faulted", RestartDelay: 5 * sim.Millisecond},
			{Key: "capped"},
		},
		Tune: func(c *Cell) {
			switch c.Variant.Key {
			case "faulted":
				c.FaultAt = 5 * sim.Millisecond
			case "capped":
				c.MaxVirtual = 5 * sim.Millisecond
			}
		},
	}
	before := runtime.NumGoroutine()
	res := Run(spec, Options{Parallel: 2})

	if cr := res.Get("cg.A.2", "vc", "faulted"); !cr.Completed || cr.Stats.Recoveries != 1 {
		t.Errorf("faulted cell: completed %v with %d recoveries, want a completed run with 1", cr.Completed, cr.Stats.Recoveries)
	}
	if cr := res.Get("cg.A.2", "vc", "capped"); cr.Outcome != cluster.OutcomeDiverged {
		t.Errorf("capped cell outcome = %q, want diverged", cr.Outcome)
	}
	if cr := res.Get("boom", "vc", "faulted"); !strings.Contains(cr.Err, "boom") {
		t.Errorf("panicking cell Err = %q, want the program's panic", cr.Err)
	}
	// Worker goroutines may still be exiting when Run returns.
	after := runtime.NumGoroutine()
	for i := 0; i < 200 && after > before; i++ {
		time.Sleep(time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Errorf("%d goroutines after the sweep, %d before", after, before)
	}
}
