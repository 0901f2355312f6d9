package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"mpichv/internal/cluster"
	"mpichv/internal/obs"
	"mpichv/internal/sim"
)

// Options tune a sweep execution. The zero value runs with a worker per
// CPU, no cell timeout and no callbacks.
type Options struct {
	// Parallel is the worker-pool size; <= 0 selects GOMAXPROCS. Each
	// worker runs one cell at a time; cells are independent simulations,
	// so -parallel 1 and -parallel N produce identical results.
	Parallel int

	// CellTimeout is a wall-clock guard per cell. A watchdog inside the
	// simulation stops the kernel at the first event past the deadline,
	// so an over-budget cell frees both its worker slot and its CPU; the
	// cell is recorded as errored. Zero disables the guard.
	CellTimeout time.Duration

	// OnProgress, when non-nil, is invoked after every cell completes.
	// It may be called from multiple workers; calls are serialized.
	OnProgress func(Progress)

	// OnError, when non-nil, receives every cell failure as it happens
	// (also recorded in the cell's result). Calls are serialized.
	OnError func(CellError)

	// TraceDir, when non-empty, enables the observability layer on every
	// cell and writes two trace files per cell into the directory: a JSONL
	// timeline (<cell>.jsonl) and a Chrome trace-event file
	// (<cell>.trace.json, Perfetto-viewable). Tracing only observes, so
	// traced results are identical to untraced ones, and timelines are
	// byte-identical across worker counts.
	TraceDir string
}

// Progress reports one completed cell to the progress callback.
type Progress struct {
	Sweep  string
	Done   int // cells finished so far, including this one
	Total  int
	Cell   *Cell
	Result *CellResult
	Wall   time.Duration // wall-clock time of this cell
}

// CellError identifies one failed cell.
type CellError struct {
	Sweep string
	Cell  *Cell
	Err   error
}

// Error renders the failure as "<sweep>: cell <id>: <cause>".
func (e CellError) Error() string {
	return fmt.Sprintf("%s: cell %q: %v", e.Sweep, e.Cell.ID, e.Err)
}

// Run expands the spec and executes every cell across the worker pool,
// returning results in cell (grid) order regardless of completion order.
func Run(spec *SweepSpec, opts Options) *Results {
	cells := spec.Cells()
	res := &Results{Name: spec.Name, Cells: make([]CellResult, len(cells))}

	if opts.TraceDir != "" {
		if err := os.MkdirAll(opts.TraceDir, 0o755); err != nil {
			panic(fmt.Sprintf("harness: cannot create trace dir: %v", err))
		}
	}

	workers := opts.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	if workers < 1 {
		workers = 1
	}

	var (
		mu   sync.Mutex // serializes callbacks and the done counter
		done int
		wg   sync.WaitGroup
	)
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				cell := &cells[idx]
				start := time.Now()
				cr := executeWithTimeout(cell, opts)
				wall := time.Since(start)
				res.Cells[idx] = cr

				mu.Lock()
				done++
				if cr.Err != "" && opts.OnError != nil {
					opts.OnError(CellError{Sweep: spec.Name, Cell: cell, Err: fmt.Errorf("%s", cr.Err)})
				}
				if opts.OnProgress != nil {
					opts.OnProgress(Progress{
						Sweep: spec.Name, Done: done, Total: len(cells),
						Cell: cell, Result: &res.Cells[idx], Wall: wall,
					})
				}
				mu.Unlock()
			}
		}()
	}
	for idx := range cells {
		jobs <- idx
	}
	close(jobs)
	wg.Wait()
	res.index()
	return res
}

// watchdogGrace is how long the runner waits past the deadline for the
// in-simulation watchdog to unwind the kernel before abandoning the
// goroutine (the backstop for a kernel stuck inside one event).
const watchdogGrace = 2 * time.Second

// executeWithTimeout runs one cell, optionally bounded by a wall-clock
// deadline.
func executeWithTimeout(cell *Cell, opts Options) CellResult {
	timeout := opts.CellTimeout
	if timeout <= 0 {
		return execute(cell, opts, time.Time{})
	}
	deadline := time.Now().Add(timeout)
	ch := make(chan CellResult, 1)
	go func() { ch <- execute(cell, opts, deadline) }()
	select {
	case cr := <-ch:
		return cr
	case <-time.After(time.Until(deadline) + watchdogGrace):
		cr := newCellResult(cell)
		cr.Err = fmt.Sprintf("cell timed out after %v (wall clock) and its kernel did not stop", timeout)
		return cr
	}
}

// execute runs one cell's simulation to completion (or its virtual-time
// cap, or the wall-clock deadline) and collects stats and probes.
// Simulation panics — deadlocks, configuration errors — are captured as
// the cell's error rather than tearing down the whole sweep.
func execute(cell *Cell, opts Options, deadline time.Time) (cr CellResult) {
	timeout := opts.CellTimeout
	cr = newCellResult(cell)
	defer func() {
		if r := recover(); r != nil {
			cr.Err = fmt.Sprintf("panic: %v", r)
		}
	}()

	in := cell.Workload.Build()
	cfg := cell.Config
	if in.AppStateBytes > 0 {
		cfg.AppStateBytes = in.AppStateBytes
	}
	if opts.TraceDir != "" && cfg.Trace == nil {
		cfg.Trace = &obs.Config{}
	}
	c := cluster.New(cfg)
	defer c.Close()
	d := c.PrepareRun(in.Programs)
	if cell.FaultAt > 0 {
		d.ScheduleFault(cell.FaultAt, 0)
	}
	if cell.FaultEvery > 0 {
		d.PeriodicFaults(cell.FaultEvery)
	}
	if !deadline.IsZero() {
		// A periodic kernel event checks the wall clock from simulator
		// context — the only place the single-threaded kernel may be
		// stopped — so a timed-out cell releases its CPU instead of
		// running to the virtual cap. The watchdog touches no simulated
		// state and draws no randomness, so a run that finishes under
		// the deadline is identical to an unguarded one.
		const watchPeriod = 10 * sim.Millisecond
		var watch func()
		watch = func() {
			if time.Now().After(deadline) {
				c.K.Stop()
				return
			}
			c.K.At(c.K.Now()+watchPeriod, watch)
		}
		c.K.At(watchPeriod, watch)
	}
	d.Launch()
	end := c.K.RunUntil(cell.MaxVirtual)

	cr.Completed = d.AllDone()
	cr.Outcome = c.Outcome()
	cr.DetLoss = c.FirstDetLoss()
	if !cr.Completed && !deadline.IsZero() && time.Now().After(deadline) {
		// The wall-clock watchdog stopped the kernel: the cell was most
		// likely deadlocked (it would otherwise have reached its virtual
		// cap quickly); a concurrently detected determinant loss keeps its
		// own classification.
		if cr.Outcome == cluster.OutcomeDiverged {
			cr.Outcome = cluster.OutcomeDeadlockTimeout
		}
		cr.Err = fmt.Sprintf("cell timed out after %v (wall clock)", timeout)
	}
	cr.Elapsed = end
	cr.Stats = c.AggregateStats()
	if cr.Completed {
		cr.Mflops = in.Mflops(end)
	}
	if len(cell.Probes) > 0 {
		cr.Probes = make(map[string]float64, len(cell.Probes))
		pctx := probeContext{C: c, In: in, End: end}
		for _, name := range cell.Probes {
			v, err := probe(name, pctx)
			if err != nil {
				cr.Err = err.Error()
				continue
			}
			cr.Probes[name] = v
		}
	}
	if opts.TraceDir != "" {
		if err := writeTraces(opts.TraceDir, cell.ID, c, end); err != nil && cr.Err == "" {
			cr.Err = err.Error()
		}
	}
	return cr
}

// writeTraces renders one cell's timeline as a JSONL file and a Chrome
// trace-event file under dir. Cell IDs contain separators and spaces, so
// they are sanitized into filenames; both renderings are deterministic,
// keeping traced sweeps byte-comparable across worker counts.
func writeTraces(dir, cellID string, c *cluster.Cluster, end sim.Time) error {
	events := c.Timeline.Events()
	base := filepath.Join(dir, sanitizeFilename(cellID))
	if err := os.WriteFile(base+".jsonl", obs.JSONL(events), 0o644); err != nil {
		return fmt.Errorf("harness: writing timeline: %w", err)
	}
	trace := obs.ChromeTrace(events, c.Cfg.NP, end)
	if err := os.WriteFile(base+".trace.json", trace, 0o644); err != nil {
		return fmt.Errorf("harness: writing chrome trace: %w", err)
	}
	return nil
}

// sanitizeFilename maps a cell ID onto a safe filename: every byte
// outside [A-Za-z0-9._-] becomes '_'.
func sanitizeFilename(id string) string {
	out := []byte(id)
	for i, b := range out {
		switch {
		case b >= 'a' && b <= 'z', b >= 'A' && b <= 'Z', b >= '0' && b <= '9',
			b == '.', b == '_', b == '-':
		default:
			out[i] = '_'
		}
	}
	return string(out)
}
