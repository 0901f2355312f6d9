package experiment

import (
	"cmp"
	"fmt"
	"slices"

	"mpichv/internal/checkpoint"
	"mpichv/internal/cluster"
	"mpichv/internal/harness"
	"mpichv/internal/sim"
	"mpichv/internal/workload"
)

// The paper's protocol axes.
var (
	causalStacks = []harness.Stack{
		{Label: "Vcausal (EL)", Stack: cluster.StackVcausal, Reducer: "vcausal", UseEL: true},
		{Label: "Manetho (EL)", Stack: cluster.StackVcausal, Reducer: "manetho", UseEL: true},
		{Label: "LogOn (EL)", Stack: cluster.StackVcausal, Reducer: "logon", UseEL: true},
		{Label: "Vcausal (no EL)", Stack: cluster.StackVcausal, Reducer: "vcausal", UseEL: false},
		{Label: "Manetho (no EL)", Stack: cluster.StackVcausal, Reducer: "manetho", UseEL: false},
		{Label: "LogOn (no EL)", Stack: cluster.StackVcausal, Reducer: "logon", UseEL: false},
	}
	allStacks = append([]harness.Stack{
		{Label: "MPICH-P4", Stack: cluster.StackP4},
		{Label: "MPICH-Vdummy", Stack: cluster.StackVdummy},
	}, causalStacks...)
	// elStacks is the three reducers with the Event Logger, the paper's
	// recommended deployment. Capped so an append cannot overwrite
	// causalStacks.
	elStacks = causalStacks[:3:3]
)

// stacksNamed picks allStacks entries by label, in the order given; an
// unknown label panics at start-up.
func stacksNamed(labels ...string) []harness.Stack {
	out := make([]harness.Stack, len(labels))
	for i, label := range labels {
		out[i] = allStacks[slices.IndexFunc(allStacks, func(st harness.Stack) bool { return st.Label == label })]
	}
	return out
}

// witnessPair is the minimal determinant-loss topology both fault smokes
// run (see workload.BuildWitnessPair): the victim's determinants have
// exactly one witness.
var witnessPair = harness.Workload{
	Key:  "witness-pair.3",
	Make: func() *workload.Instance { return workload.BuildWitnessPair(40) },
}

// nasWorkloads converts NAS specs into harness form, keyed "bench.Class.NP".
func nasWorkloads(specs []workload.Spec) []harness.Workload {
	out := make([]harness.Workload, len(specs))
	for i, spec := range specs {
		out[i] = harness.Workload{Key: spec.String(), Spec: spec}
	}
	return out
}

// ckptBudget gives every stack Figure 1's checkpoint budget: the same
// per-process period, so the logging stacks checkpoint one rank at a time,
// round-robin, and coordinated checkpointing snapshots the whole machine
// once per period (cluster.New turns its policy into the coordinated
// wave).
func ckptBudget(c *harness.Cell) {
	const period = 10 * sim.Second
	c.Config.CkptPolicy, c.Config.CkptInterval = checkpoint.PolicyRoundRobin, period/sim.Time(c.Config.NP)
	if c.Stack.Stack == cluster.StackCoordinated {
		c.Config.CkptInterval = period
	}
}

// perNP is a fault axis whose plans follow the process count (partition
// groups, burst sizes). It returns at(np) as the sweep's variants, whose
// keys and restart delays must be the same at every NP, and the Tune step
// that installs each cell's plan, resolved at the cell's own NP.
func perNP(np int, at func(np int) []harness.Variant) ([]harness.Variant, func(*harness.Cell)) {
	return at(np), func(c *harness.Cell) {
		vs := at(c.Config.NP)
		c.Config.Faults = vs[slices.IndexFunc(vs, func(v harness.Variant) bool { return v.Key == c.Variant.Key })].Faults
	}
}

// faultedSweep is the measurement behind Figure 1 and every extension that
// reports slowdown under faults. It runs its spec in two phases: a
// fault-free baseline per (workload, stack), then the spec's own grid with
// each cell capped at factor times its own baseline. A run still pending
// at the cap has diverged: the protocol stopped making progress at that
// fault rate. Both phases take Figure 1's checkpoint budget (ckptBudget);
// only the faulted phase then applies the spec's Tune, which may install
// plans, and the cap.
type faultedSweep struct {
	harness.SweepSpec
	base   string // the baseline sweep's name; empty means Name+"-baseline"
	factor sim.Time
	// caps fixes the faulted cells' cap per workload key instead of
	// factor x baseline (for timelines too short to scale from).
	caps map[string]sim.Time
}

// faultedRun holds both phases' results.
type faultedRun struct{ base, faulted *harness.Results }

func (f faultedSweep) run(opts harness.Options) *faultedRun {
	base, faulted := f.SweepSpec, f.SweepSpec
	base.Name = cmp.Or(f.base, f.Name+"-baseline")
	base.Variants, base.MaxVirtual, base.Tune = []harness.Variant{{Key: "fault-free"}}, 100*sim.Minute, ckptBudget
	r := &faultedRun{base: harness.Run(&base, opts)}
	faulted.Tune = func(c *harness.Cell) {
		ckptBudget(c)
		if f.Tune != nil {
			f.Tune(c)
		}
		c.MaxVirtual = cmp.Or(f.caps[c.Workload.Key], r.baseline(c.Workload.Key, c.Stack.Label)*f.factor)
	}
	r.faulted = harness.Run(&faulted, opts)
	return r
}

// baseline is the fault-free Elapsed of one (workload, stack) pair.
func (r *faultedRun) baseline(w, stack string) sim.Time {
	return r.base.MustGet(w, stack, "fault-free").Elapsed
}

func (r *faultedRun) sweeps() []*harness.Results { return []*harness.Results{r.base, r.faulted} }

// slowdown renders one faulted cell as a percentage of its own fault-free
// time, with note (if any) appending diagnostics. A run that did not
// complete shows its typed outcome (diverged, deadlock, determinant-loss)
// rather than a number.
func (r *faultedRun) slowdown(w, stack, variant string, note func(*harness.CellResult) string) string {
	cr := r.faulted.Get(w, stack, variant)
	switch {
	case cr == nil:
		return "error"
	case !cr.Completed && cr.Outcome != "":
		return string(cr.Outcome)
	case !cr.Completed || cr.Err != "":
		return "error"
	}
	cell := f1(100 * float64(cr.Elapsed) / float64(r.baseline(w, stack)))
	if note != nil {
		cell += note(cr)
	}
	return cell
}

// stackHeader is a table header: the lead columns, then one per stack.
func stackHeader(stacks []harness.Stack, lead ...string) []string {
	for _, st := range stacks {
		lead = append(lead, st.Label)
	}
	return lead
}

// benchGroup is one benchmark panel of a figure with its process counts.
type benchGroup struct {
	bench, class string
	nps          []int
}

// specRows adds one row per NAS spec to t: "bench.Class", the process
// count, then each column function applied to every stack's cell in res.
func specRows(t *Table, res *harness.Results, specs []workload.Spec, stacks []harness.Stack, cols ...func(*harness.CellResult) string) {
	for _, spec := range specs {
		row := []string{spec.Bench + "." + spec.Class, fmt.Sprintf("%d", spec.NP)}
		for _, st := range stacks {
			cr := res.MustGet(spec.String(), st.Label, "base")
			for _, col := range cols {
				row = append(row, col(cr))
			}
		}
		t.AddRow(row...)
	}
}

// groupSpecs flattens a figure's panels into the sweep's workload axis.
func groupSpecs(groups []benchGroup) []workload.Spec {
	var specs []workload.Spec
	for _, g := range groups {
		for _, np := range g.nps {
			specs = append(specs, workload.Spec{Bench: g.bench, Class: g.class, NP: np})
		}
	}
	return specs
}
