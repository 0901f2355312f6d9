package harness

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"mpichv/internal/cluster"
	"mpichv/internal/obs"
	"mpichv/internal/sim"
)

// Options tune a sweep execution. The zero value runs with a worker per
// CPU and no callbacks. None of them changes a cell's result: a cell ends
// in virtual time alone (see cluster.Outcome).
type Options struct {
	// Parallel is the worker-pool size; <= 0 selects GOMAXPROCS. Each
	// worker runs one cell at a time; cells are independent simulations,
	// so -parallel 1 and -parallel N produce identical results.
	Parallel int

	// OnProgress, when non-nil, is invoked after every cell completes.
	// It may be called from multiple workers; calls are serialized.
	OnProgress func(Progress)

	// OnError, when non-nil, receives every cell failure as it happens
	// (also recorded in the cell's result). Calls are serialized.
	OnError func(CellError)

	// TraceDir, when non-empty, enables the observability layer on every
	// cell and writes two trace files per cell into the sweep's own
	// subdirectory, <TraceDir>/<sweep>/: a JSONL timeline (<cell>.jsonl)
	// and a Chrome trace-event file (<cell>.trace.json, Perfetto-viewable).
	// Sweeps sharing a cell ID keep their own timelines. Tracing only
	// observes, so traced results are identical to untraced ones, and
	// timelines are byte-identical across worker counts.
	TraceDir string
}

// Progress reports one completed cell to the progress callback.
type Progress struct {
	Sweep string
	Done  int // cells finished so far, including this one
	Total int
	Cell  *Cell
	Wall  time.Duration // wall-clock time of this cell
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
// largest NP first, returning results in cell (grid) order regardless of
// dispatch or completion order.
func Run(spec *SweepSpec, opts Options) *Results {
	cells := spec.Cells()
	res := &Results{Name: spec.Name, Cells: make([]CellResult, len(cells))}

	if opts.TraceDir != "" {
		opts.TraceDir = filepath.Join(opts.TraceDir, sanitizeFilename(spec.Name))
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
				cr := execute(cell, opts)
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
						Cell: cell, Wall: wall,
					})
				}
				mu.Unlock()
			}
		}()
	}
	// Largest NP first, ties in grid order: NP is the size axis every sweep
	// has and is known before a cell runs, so no worker idles through a
	// long last cell (Graham's longest-first rule).
	order := slices.Clone(cells)
	slices.SortStableFunc(order, func(a, b Cell) int { return cmp.Compare(b.Config.NP, a.Config.NP) })
	for _, c := range order {
		jobs <- c.Index
	}
	close(jobs)
	wg.Wait()
	res.index()
	return res
}

// execute runs one cell's simulation until it ends (see
// cluster.RunLaunched) and collects stats and probes. Simulation panics —
// configuration errors, broken programs — are captured as the cell's
// error rather than tearing down the whole sweep.
func execute(cell *Cell, opts Options) (cr CellResult) {
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
	if opts.TraceDir != "" {
		cfg.Trace = true
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
	d.Launch()
	run := c.RunLaunched(cell.MaxVirtual)
	end := run.End
	cr.Completed = d.AllDone()
	cr.Outcome, cr.DetLoss, cr.Elapsed = run.Outcome, run.DetLoss, end
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
