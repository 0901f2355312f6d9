package main

import (
	"crypto/sha256"
	"fmt"
	"time"

	"mpichv/internal/cluster"
	"mpichv/internal/harness"
	"mpichv/internal/sim"
	"mpichv/internal/trace"
	"mpichv/internal/workload"
)

// cellOut is what the benchmark keeps of one executed cell: the simulated
// result (a pure function of the spec and the seed) plus its host time.
type cellOut struct {
	ID        string             `json:"id"`
	Outcome   cluster.Outcome    `json:"outcome"`
	ElapsedNs int64              `json:"elapsed_ns"`
	Stats     trace.Stats        `json:"stats"`
	Probes    map[string]float64 `json:"probes"`
	Err       string             `json:"err,omitempty"`
	// WallNs is the cell's host time: the harness worker's measurement for
	// a pooled cell, the cell span for a directly driven one.
	WallNs int64 `json:"wall_ns"`
}

func indexCells(cells []cellOut) map[string]*cellOut {
	byID := make(map[string]*cellOut, len(cells))
	for i := range cells {
		byID[cells[i].ID] = &cells[i]
	}
	return byID
}

// cellFailure reports why a cell counts as failed ("" when it does not):
// an error, or an outcome other than the three planned endings.
func cellFailure(c *cellOut) string {
	if c.Err != "" {
		return c.Err
	}
	switch c.Outcome {
	case cluster.OutcomeCompleted, cluster.OutcomeFalseSuspicion, cluster.OutcomeHorizon:
		return ""
	}
	return fmt.Sprintf("outcome %q", c.Outcome)
}

// simDigest hashes every simulated statistic of a run in grid order. Host
// times are excluded, so the digest must repeat exactly across reps, across
// invocations, and between the pooled and the directly driven run; a change
// that claims a pure speed-up must leave it untouched.
func simDigest(cells []cellOut) string {
	h := sha256.New()
	for i := range cells {
		c := &cells[i]
		fmt.Fprintf(h, "%s|%s|%d|%+v\n", c.ID, c.Outcome, c.ElapsedNs, c.Stats)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// --- spans ---

// span is one timed interval of the traced run. Spans of one cell share its
// ID; Parent indexes the span that caused this one (-1 for the run itself).
type span struct {
	Name    string `json:"name"`
	Cell    string `json:"cell,omitempty"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the benchmark
// ends. A nil tracer records nothing, which is the untraced run.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name, cell string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Cell: cell, Parent: parent, StartNs: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t != nil {
		t.spans[i].EndNs = int64(time.Since(t.t0))
	}
}

// selfTimes sums, per span name, each span's duration minus the part its
// children cover.
func selfTimes(spans []span) map[string]time.Duration {
	self := make(map[string]time.Duration)
	for _, s := range spans {
		self[s.Name] += time.Duration(s.EndNs - s.StartNs)
		if s.Parent >= 0 {
			self[spans[s.Parent].Name] -= time.Duration(s.EndNs - s.StartNs)
		}
	}
	return self
}

// --- driving cells ---

// wire builds and wires one cell's deployment without executing an event:
// the steps harness.execute takes before it runs the kernel, through the
// same public API. A set-up pass stops short of Launch, which would leave NP
// parked goroutines behind per abandoned deployment.
func wire(cell *harness.Cell, tr *tracer, parent int, launch bool) (*workload.Instance, *cluster.Cluster) {
	s := tr.begin("workload.build", cell.ID, parent)
	in := cell.Workload.Build()
	tr.end(s)

	cfg := cell.Config
	if in.AppStateBytes > 0 {
		cfg.AppStateBytes = in.AppStateBytes
	}
	s = tr.begin("cluster.new", cell.ID, parent)
	c := cluster.New(cfg)
	tr.end(s)

	s = tr.begin("cluster.prepare", cell.ID, parent)
	d := c.PrepareRun(in.Programs)
	if cell.FaultAt > 0 {
		d.ScheduleFault(cell.FaultAt, 0)
	}
	if cell.FaultEvery > 0 {
		d.PeriodicFaults(cell.FaultEvery)
	}
	if launch {
		d.Launch()
	}
	tr.end(s)
	return in, c
}

// driveCell runs one cell on the calling goroutine, recording a span around
// each call into a layer. A simulation panic fails the cell, as in the
// harness, instead of tearing the benchmark down.
func driveCell(cell *harness.Cell, tr *tracer, parent int) (out cellOut) {
	out = cellOut{ID: cell.ID}
	start := time.Now()
	root := tr.begin("cell", cell.ID, parent)
	defer func() {
		if r := recover(); r != nil {
			out.Err = fmt.Sprintf("panic: %v", r)
			if tr != nil {
				tr.end(len(tr.spans) - 1) // the span the panic cut short
			}
		}
		tr.end(root)
		out.WallNs = int64(time.Since(start))
	}()

	in, c := wire(cell, tr, root, true)

	s := tr.begin("sim.run", cell.ID, root)
	end := c.K.RunUntil(cell.MaxVirtual)
	tr.end(s)

	s = tr.begin("cluster.collect", cell.ID, root)
	out.Outcome = c.Outcome()
	out.ElapsedNs = int64(end)
	out.Stats = c.AggregateStats()
	out.Probes = make(map[string]float64, len(cell.Probes))
	for _, name := range cell.Probes {
		v, err := probe(name, c, in, end)
		if err != nil {
			out.Err = err.Error()
		}
		out.Probes[name] = v
	}
	tr.end(s)
	return out
}

// probe evaluates the harness probes the workloads use against a directly
// driven cell, from the same public state the harness reads.
func probe(name string, c *cluster.Cluster, in *workload.Instance, end sim.Time) (float64, error) {
	switch name {
	case harness.ProbeKills:
		return float64(c.Dispatcher.Kills), nil
	case harness.ProbeRecoveryEventNs:
		return float64(c.Nodes[0].Stats().RecoveryEventCollection), nil
	case harness.ProbeAvailability:
		return c.Availability(), nil
	}
	if in.Service == nil {
		return 0, fmt.Errorf("probe %q needs a service workload", name)
	}
	switch name {
	case harness.ProbeP99Latency:
		return float64(in.Service.Quantile(0.99)), nil
	case harness.ProbeGoodput:
		return in.Service.GoodputRPS(end), nil
	case harness.ProbeDroppedRequests:
		return float64(in.Service.Dropped()), nil
	}
	return 0, fmt.Errorf("unknown probe %q", name)
}

// sweepCells runs one sweep through the harness worker pool — the untraced
// path of the sweep workloads, exactly what cmd/experiments users pay.
func sweepCells(spec *harness.SweepSpec) []cellOut {
	walls := make(map[int]time.Duration)
	res := harness.Run(spec, harness.Options{
		Parallel:   sweepWorkers,
		OnProgress: func(p harness.Progress) { walls[p.Cell.Index] = p.Wall }, // calls are serialized
	})
	out := make([]cellOut, len(res.Cells))
	for i := range res.Cells {
		cr := &res.Cells[i]
		out[i] = cellOut{
			ID: cr.ID, Outcome: cr.Outcome, ElapsedNs: int64(cr.Elapsed),
			Stats: cr.Stats, Probes: cr.Probes, Err: cr.Err, WallNs: int64(walls[cr.Index]),
		}
	}
	return out
}

// runOut is one execution of a workload: every phase's cells in grid order.
type runOut struct {
	Cells  []cellOut `json:"cells"`
	WallNs int64     `json:"wall_ns"`
	Spans  []span    `json:"spans,omitempty"`
}

// runWorkload executes a workload once and times it. Untraced sweeps go
// through the harness pool; direct workloads, and every workload when
// traced, are driven cell by cell on this goroutine.
func runWorkload(w *workloadDef, seed int64, small, traced bool) runOut {
	var tr *tracer
	if traced {
		tr = &tracer{t0: time.Now()}
	}
	start := time.Now()
	root := tr.begin("run", "", -1)
	var cells []cellOut
	for _, phase := range w.phases {
		spec := phase(seed, small, indexCells(cells))
		if !traced && !w.direct {
			cells = append(cells, sweepCells(spec)...)
			continue
		}
		specCells := spec.Cells()
		for i := range specCells {
			cells = append(cells, driveCell(&specCells[i], tr, root))
		}
	}
	tr.end(root)
	out := runOut{Cells: cells, WallNs: int64(time.Since(start))}
	if tr != nil {
		out.Spans = tr.spans
	}
	return out
}

// virtualComputeMs estimates, from outside, the virtual compute time one
// execution of the workload spends, summed over cells and ranks: the
// skeleton's flop count at the modeled compute rate for a NAS cell; for the
// service, its service time per request plus half of every rank's arrival
// window (a rank waits for its next op either pacing in Compute or blocked
// in Recv, about evenly). Re-execution after a rollback is not counted. It
// rebuilds every workload instance, so it runs outside the timed section.
func virtualComputeMs(w *workloadDef, seed int64, small bool) float64 {
	sc := serviceConfig(seed, small)
	var ms float64
	for _, phase := range w.phases {
		cells := phase(seed, small, nil).Cells()
		for i := range cells {
			in := cells[i].Workload.Build()
			if in.Service == nil {
				ms += in.TotalFlops / workload.ComputeRate * 1e3
				continue
			}
			ms += float64(in.Service.Scheduled())*sc.ServiceTime.Milliseconds() + 0.5*float64(sc.NP)*sc.Window.Milliseconds()
		}
	}
	return ms
}

// setupPass builds and wires every deployment of the workload once without
// executing an event — the benchmark's set-up cost. The deployments are
// abandoned (their Event Logger goroutines stay parked), which is why the
// passes run in a child of their own.
func setupPass(w *workloadDef, seed int64, small bool) {
	for _, phase := range w.phases {
		cells := phase(seed, small, nil).Cells()
		for i := range cells {
			wire(&cells[i], nil, -1, false)
		}
	}
}
