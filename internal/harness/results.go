package harness

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strconv"
	"strings"

	"mpichv/internal/cluster"
	"mpichv/internal/daemon"
	"mpichv/internal/sim"
	"mpichv/internal/trace"
)

// CellResult is one cell's outcome. Every field that reaches JSON or CSV
// is a deterministic function of the spec and seeds — wall-clock data stays
// in Progress callbacks — so identical sweeps serialize byte-identically
// regardless of worker count.
type CellResult struct {
	Index    int    `json:"index"`
	ID       string `json:"id"`
	Workload string `json:"workload"`
	Stack    string `json:"stack"`
	Variant  string `json:"variant"`
	NP       int    `json:"np"`
	Seed     int64  `json:"seed"`

	// Completed reports whether every rank finished before the cell's
	// virtual-time cap.
	Completed bool `json:"completed"`
	// Outcome classifies how the cell's run ended (completed,
	// determinant-loss, deadlock, diverged, ...). Determinant loss is a
	// measured result of the protocol configuration under the fault
	// scenario — it is distinct from Err, which records real failures
	// (panics, probe errors). Empty only when the cell erred before the
	// run could be classified.
	Outcome cluster.Outcome `json:"outcome,omitempty"`
	// DetLoss carries the first determinant loss's diagnostics (victim,
	// missing clock range, concurrently dead peers) when Outcome is
	// determinant-loss.
	DetLoss *daemon.DeterminantLoss `json:"det_loss,omitempty"`
	// Elapsed is the virtual time the run ended at, in nanoseconds: its
	// completion, or where it stopped (the cap when it diverged).
	Elapsed sim.Time `json:"elapsed_ns"`
	// Mflops is the NAS figure of merit (0 when not completed).
	Mflops float64 `json:"mflops"`
	// Stats aggregates every rank's measurement probes.
	Stats trace.Stats `json:"stats"`
	// Probes holds the named extra metrics requested by the spec.
	Probes map[string]float64 `json:"probes,omitempty"`
	// Err records a panic, probe failure or trace-write failure.
	Err string `json:"error,omitempty"`
}

func newCellResult(cell *Cell) CellResult {
	return CellResult{
		Index:    cell.Index,
		ID:       cell.ID,
		Workload: cell.Workload.key(),
		Stack:    cell.Stack.key(),
		Variant:  cell.Variant.key(),
		NP:       cell.Config.NP,
		Seed:     cell.Config.Seed,
	}
}

// Results holds one sweep's outcome in grid order.
type Results struct {
	Name  string       `json:"name"`
	Cells []CellResult `json:"cells"`

	byID map[string]*CellResult
}

func (r *Results) index() {
	r.byID = make(map[string]*CellResult, len(r.Cells))
	for i := range r.Cells {
		r.byID[r.Cells[i].ID] = &r.Cells[i]
	}
}

// Get returns the cell at (workload, stack, variant) keys, or nil.
func (r *Results) Get(workload, stack, variant string) *CellResult {
	if r.byID == nil {
		r.index()
	}
	return r.byID[workload+"|"+stack+"|"+variant]
}

// MustGet is Get but panics when the cell is missing, errored, or did not
// complete — the loud-failure path for experiment code whose downstream
// arithmetic would silently produce garbage otherwise.
func (r *Results) MustGet(workload, stack, variant string) *CellResult {
	cr := r.Get(workload, stack, variant)
	if cr == nil {
		panic(fmt.Sprintf("harness: sweep %q has no cell %q", r.Name, workload+"|"+stack+"|"+variant))
	}
	if cr.Err != "" {
		panic(fmt.Sprintf("harness: sweep %q cell %q failed: %s", r.Name, cr.ID, cr.Err))
	}
	if !cr.Completed {
		panic(fmt.Sprintf("harness: sweep %q cell %q did not complete: outcome %q at %v", r.Name, cr.ID, cr.Outcome, cr.Elapsed))
	}
	return cr
}

// Errs returns every cell failure, in grid order.
func (r *Results) Errs() []error {
	var errs []error
	for i := range r.Cells {
		if r.Cells[i].Err != "" {
			errs = append(errs, fmt.Errorf("cell %q: %s", r.Cells[i].ID, r.Cells[i].Err))
		}
	}
	return errs
}

// JSON serializes the sweep deterministically (indented; map keys sorted
// by encoding/json).
func (r *Results) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// statsColumns are trace.Stats' csv-tagged fields in struct order: the
// CSV's stats columns, each an integer count or nanosecond duration.
var statsColumns = slices.DeleteFunc(reflect.VisibleFields(reflect.TypeFor[trace.Stats]()),
	func(f reflect.StructField) bool { return f.Tag.Get("csv") == "" })

// CSV serializes the sweep as one row per cell. The stats columns come
// from trace.Stats' csv tags; probe columns are the sorted union of probe
// names across cells.
func (r *Results) CSV() (string, error) {
	probeSet := map[string]bool{}
	for i := range r.Cells {
		for name := range r.Cells[i].Probes {
			probeSet[name] = true
		}
	}
	probes := slices.Sorted(maps.Keys(probeSet))

	header := []string{
		"sweep", "index", "id", "workload", "stack", "variant", "np", "seed",
		"completed", "outcome", "elapsed_ns", "mflops",
	}
	for _, f := range statsColumns {
		header = append(header, f.Tag.Get("csv"))
	}
	header = append(header, probes...)
	header = append(header, "error")

	var b strings.Builder
	w := csv.NewWriter(&b)
	if err := w.Write(header); err != nil {
		return "", err
	}
	for i := range r.Cells {
		c := &r.Cells[i]
		row := []string{
			r.Name,
			strconv.Itoa(c.Index), c.ID, c.Workload, c.Stack, c.Variant,
			strconv.Itoa(c.NP), strconv.FormatInt(c.Seed, 10),
			strconv.FormatBool(c.Completed),
			string(c.Outcome),
			strconv.FormatInt(int64(c.Elapsed), 10),
			formatFloat(c.Mflops),
		}
		stats := reflect.ValueOf(&c.Stats).Elem()
		for _, f := range statsColumns {
			row = append(row, strconv.FormatInt(stats.FieldByIndex(f.Index).Int(), 10))
		}
		for _, name := range probes {
			v, ok := c.Probes[name]
			if !ok {
				row = append(row, "")
				continue
			}
			row = append(row, formatFloat(v))
		}
		row = append(row, c.Err)
		if err := w.Write(row); err != nil {
			return "", err
		}
	}
	w.Flush()
	return b.String(), w.Error()
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
