// Package harness executes declarative experiment sweeps. A SweepSpec
// names a cartesian grid of simulation cells — workload × protocol stack ×
// variant — with deterministic per-cell seed derivation; a worker-pool
// Runner executes the cells concurrently (each cell is one single-threaded,
// fully independent cluster simulation) with ordered result collection
// and progress callbacks; a cell ends in virtual time alone, so its result
// never depends on the host. The Results model serializes to JSON and CSV
// alongside the experiment package's paper-style text tables.
package harness

import (
	"fmt"

	"mpichv/internal/checkpoint"
	"mpichv/internal/cluster"
	"mpichv/internal/eventlogger"
	"mpichv/internal/faultplan"
	"mpichv/internal/sim"
	"mpichv/internal/workload"
)

// Stack is one point of the protocol axis: a communication stack plus the
// causal-reduction and Event Logger choices that go with it.
type Stack struct {
	// Key is the stable identifier used in cell IDs and result lookups;
	// empty defaults to Label.
	Key string
	// Label is the human-readable column/row name.
	Label string
	// Stack is the cluster stack name (cluster.Stack*).
	Stack string
	// Reducer selects the piggyback reduction for cluster.StackVcausal.
	Reducer string
	// UseEL deploys the Event Logger.
	UseEL bool
}

func (s Stack) key() string {
	if s.Key != "" {
		return s.Key
	}
	return s.Label
}

// Workload is one point of the application axis: a NAS skeleton spec, or
// any other instance (a NetPIPE ping-pong, custom per-rank programs)
// built by Make.
type Workload struct {
	// Key is the stable identifier; empty defaults to the spec string
	// ("bt.A.9"). Custom workloads (Make) must set it.
	Key string
	// Spec names a NAS skeleton instance.
	Spec workload.Spec
	// Make, when non-nil, builds an arbitrary instance and takes
	// precedence over Spec.
	// It is invoked once per cell execution — plus once per sweep
	// expansion, to read the instance's NP — and must return a fresh
	// instance each time (instances hold per-run program state).
	Make func() *workload.Instance
	// AppStateBytes overrides the instance's checkpoint image size (0
	// keeps the benchmark's own value).
	AppStateBytes int64
}

func (w Workload) key() string {
	if w.Key != "" {
		return w.Key
	}
	if w.Make != nil {
		panic("harness: custom workloads (Make) must set Key")
	}
	return w.Spec.String()
}

// NP returns the process count the workload deploys on. For a Make
// workload it builds an instance to read it.
func (w Workload) NP() int {
	if w.Make != nil {
		return w.Make().NP
	}
	return w.Spec.NP
}

// Build constructs a fresh runnable instance. Instances hold per-run
// program state, so every cell execution builds its own.
func (w Workload) Build() *workload.Instance {
	var in *workload.Instance
	if w.Make != nil {
		in = w.Make()
	} else {
		in = workload.Build(w.Spec)
	}
	if w.AppStateBytes > 0 {
		in.AppStateBytes = w.AppStateBytes
	}
	return in
}

// Variant is one point of the remaining configuration axis: checkpoint
// policy, fault schedule, Event Logger deployment and service model, and
// the wire's duplex. The zero value is the fault-free default deployment.
type Variant struct {
	// Key is the stable identifier; empty defaults to "base".
	Key string

	// Checkpoint scheduler configuration.
	CkptPolicy   checkpoint.Policy
	CkptInterval sim.Time

	// FaultEvery kills round-robin every FaultEvery (zero: never). A
	// single kill of rank 0 is Cell.FaultAt, which Tune sets.
	FaultEvery sim.Time
	// Faults is a declarative multi-failure scenario (storms, correlated
	// kills, cascades, server outages) compiled onto the cell's
	// dispatcher; it composes with Cell.FaultAt and FaultEvery. The plan is
	// read-only and safely shared by every cell referencing the variant.
	Faults *faultplan.Plan
	// RestartDelay models detection plus relaunch (0 = cluster default).
	RestartDelay sim.Time

	// Event Logger deployment and service model overrides.
	EventLoggers int
	ELSync       eventlogger.SyncPolicy
	EL           eventlogger.Config

	// HalfDuplex runs the wire half duplex (cluster.Config.HalfDuplex).
	HalfDuplex bool

	// Horizon, when positive, plans the run's end at this virtual time
	// (cluster.Config.Horizon): an always-on cell still pending there is
	// classified OutcomeHorizon instead of OutcomeDiverged. The cell's
	// virtual cap is raised to the horizon when it would cut earlier.
	Horizon sim.Time
}

func (v Variant) key() string {
	if v.Key != "" {
		return v.Key
	}
	return "base"
}

// Cell is one fully resolved grid point: everything a worker needs to run
// a single simulation.
type Cell struct {
	Index    int
	ID       string
	Workload Workload
	Stack    Stack
	Variant  Variant
	// Config is the resolved deployment. The checkpoint image size is
	// the built instance's, which its programs set on their nodes.
	Config cluster.Config
	// Fault schedule: kill rank 0 once at FaultAt (set by Tune), and
	// round-robin every FaultEvery (copied from the variant).
	FaultAt    sim.Time
	FaultEvery sim.Time
	// MaxVirtual is the virtual-time cap; runs still pending at the cap
	// are reported with Completed=false rather than panicking.
	MaxVirtual sim.Time
	// Probes are the named extra metrics collected after the run.
	Probes []string
}

// SweepSpec is a declarative cartesian experiment grid. Cells enumerates
// Workloads × Stacks × Variants in that nesting order (workloads
// outermost), so the cell order — and therefore the Results order — is a
// deterministic function of the spec alone.
type SweepSpec struct {
	// Name identifies the sweep in results and progress reports.
	Name string

	Workloads []Workload
	Stacks    []Stack
	Variants  []Variant

	// BaseSeed derives a distinct deterministic seed per cell (mixed with
	// the cell ID). Zero leaves every cell on the cluster default seed
	// (1), matching a plain cluster.New deployment.
	BaseSeed int64

	// MaxVirtual is the default virtual-time safety cap per cell
	// (default 100 hours, the legacy experiment deadline).
	MaxVirtual sim.Time

	// Probes names extra per-cell metrics to collect (see probes.go).
	Probes []string

	// Tune, when non-nil, adjusts each cell after expansion — the escape
	// hatch for cross-axis dependencies (e.g. a checkpoint interval that
	// depends on the stack, or a cap derived from a baseline sweep).
	Tune func(*Cell)
}

// DefaultMaxVirtual is the virtual-time safety cap applied when the spec
// sets none.
const DefaultMaxVirtual = 100 * sim.Minute * 60

// Cells expands the grid into its resolved cells.
func (s *SweepSpec) Cells() []Cell {
	stacks := s.Stacks
	if len(stacks) == 0 {
		stacks = []Stack{{Key: "default", Stack: cluster.StackVdummy}}
	}
	variants := s.Variants
	if len(variants) == 0 {
		variants = []Variant{{}}
	}
	var cells []Cell
	seen := make(map[string]bool)
	for _, w := range s.Workloads {
		// Resolved once per workload: for custom workloads (Make) reading
		// NP builds a throwaway instance, so it must not run per cell.
		np := w.NP()
		for _, st := range stacks {
			for _, v := range variants {
				id := w.key() + "|" + st.key() + "|" + v.key()
				if seen[id] {
					panic(fmt.Sprintf("harness: sweep %q has duplicate cell ID %q — give workloads, stacks and variants distinct keys", s.Name, id))
				}
				seen[id] = true
				cfg := cluster.Config{
					NP:           np,
					Stack:        st.Stack,
					Reducer:      st.Reducer,
					UseEL:        st.UseEL,
					CkptPolicy:   v.CkptPolicy,
					CkptInterval: v.CkptInterval,
					Faults:       v.Faults,
					RestartDelay: v.RestartDelay,
					EventLoggers: v.EventLoggers,
					ELSync:       v.ELSync,
					EL:           v.EL,
					HalfDuplex:   v.HalfDuplex,
					Horizon:      v.Horizon,
				}
				if s.BaseSeed != 0 {
					cfg.Seed = sim.DeriveSeed(s.BaseSeed, id)
				} else {
					// Record the cluster default explicitly so results
					// state the seed the simulation actually ran with.
					cfg.Seed = 1
				}
				maxV := s.MaxVirtual
				if maxV == 0 {
					maxV = DefaultMaxVirtual
				}
				if v.Horizon > 0 && maxV < v.Horizon {
					// The planned horizon stop must be reachable; a tighter
					// cap would misclassify the cut as divergence.
					maxV = v.Horizon
				}
				cell := Cell{
					Index:      len(cells),
					ID:         id,
					Workload:   w,
					Stack:      st,
					Variant:    v,
					Config:     cfg,
					FaultEvery: v.FaultEvery,
					MaxVirtual: maxV,
					Probes:     s.Probes,
				}
				if s.Tune != nil {
					s.Tune(&cell)
				}
				cells = append(cells, cell)
			}
		}
	}
	return cells
}
