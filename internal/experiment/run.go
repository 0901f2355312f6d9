package experiment

import (
	"cmp"
	"fmt"
	"slices"

	"mpichv/internal/checkpoint"
	"mpichv/internal/cluster"
	"mpichv/internal/faultplan"
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

// planTune returns the Tune step installing each cell's fault plan. A
// (workload, variant) plan is resolved on the first cell of its row, at
// the cell's NP (partition groups and burst sizes follow it), and shared
// read-only by every stack of that row.
func planTune(variants []harness.Variant, planFor func(w harness.Workload, np, variant int) *faultplan.Plan) func(*harness.Cell) {
	plans := make(map[string]*faultplan.Plan)
	return func(c *harness.Cell) {
		key := c.Workload.Key + "|" + c.Variant.Key
		plan, ok := plans[key]
		if !ok {
			i := slices.IndexFunc(variants, func(v harness.Variant) bool { return v.Key == c.Variant.Key })
			plan = planFor(c.Workload, c.Config.NP, i)
			plans[key] = plan
		}
		c.Config.Faults = plan
	}
}

// faultedSweep is the measurement behind Figure 1 and every extension that
// reports slowdown under faults. It runs in two phases: a fault-free
// baseline per (workload, stack), then the faulted grid with each cell
// capped at factor times its own baseline. A run still pending at the cap
// has diverged: the protocol stopped making progress at that fault rate.
type faultedSweep struct {
	name      string // the baseline sweep is name+"-baseline"
	faulted   string // the faulted sweep's name; empty means name
	workloads []harness.Workload
	stacks    []harness.Stack
	seed      int64
	probes    []string
	variants  []harness.Variant
	// planFor, when set, resolves variant i's fault plan for one
	// workload; otherwise plans ride on the variants.
	planFor func(w harness.Workload, np, variant int) *faultplan.Plan
	factor  sim.Time
	// caps fixes the faulted cells' cap per workload key instead of
	// factor x baseline (for timelines too short to scale from).
	caps map[string]sim.Time
}

// faultedRun holds both phases' results and the baseline they were
// capped from.
type faultedRun struct {
	base, faulted *harness.Results
	baseline      map[string]sim.Time // fault-free Elapsed by "workload|stack label"
}

func (f faultedSweep) run(opts harness.Options) *faultedRun {
	spec := func(name string, variants []harness.Variant, tune func(*harness.Cell)) *harness.SweepSpec {
		return &harness.SweepSpec{
			Name:       name,
			Workloads:  f.workloads,
			Stacks:     f.stacks,
			Variants:   variants,
			BaseSeed:   f.seed,
			MaxVirtual: 100 * sim.Minute,
			Probes:     f.probes,
			Tune: func(c *harness.Cell) {
				ckptBudget(c)
				if tune != nil {
					tune(c)
				}
			},
		}
	}
	r := &faultedRun{baseline: make(map[string]sim.Time)}
	r.base = harness.Run(spec(f.name+"-baseline", []harness.Variant{{Key: "fault-free"}}, nil), opts)
	for _, w := range f.workloads {
		for _, st := range f.stacks {
			r.baseline[w.Key+"|"+st.Label] = r.base.MustGet(w.Key, st.Label, "fault-free").Elapsed
		}
	}
	plan := func(*harness.Cell) {}
	if f.planFor != nil {
		plan = planTune(f.variants, f.planFor)
	}
	r.faulted = harness.Run(spec(cmp.Or(f.faulted, f.name), f.variants, func(c *harness.Cell) {
		plan(c)
		if fixed := f.caps[c.Workload.Key]; fixed > 0 {
			c.MaxVirtual = fixed
		} else {
			c.MaxVirtual = r.baseline[c.Workload.Key+"|"+c.Stack.Label] * f.factor
		}
	}), opts)
	return r
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
	cell := f1(100 * float64(cr.Elapsed) / float64(r.baseline[w+"|"+stack]))
	if note != nil {
		cell += note(cr)
	}
	return cell
}

// scenario is one named point of a fault axis; restart, when set,
// overrides the detection+relaunch delay under it.
type scenario struct {
	key     string
	plan    *faultplan.Plan
	restart sim.Time
}

// scenarioAxis turns a per-NP scenario list into a sweep's variant axis,
// keyed at the first workload's NP, and the planFor resolving variant i's
// plan at each workload's own NP (partition groups and bursts follow it).
func scenarioAxis(workloads []harness.Workload, at func(np int) []scenario) ([]harness.Variant, func(harness.Workload, int, int) *faultplan.Plan) {
	first := at(workloads[0].NP())
	variants := make([]harness.Variant, len(first))
	for i, sc := range first {
		variants[i] = harness.Variant{Key: sc.key, RestartDelay: sc.restart}
	}
	return variants, func(_ harness.Workload, np, i int) *faultplan.Plan { return at(np)[i].plan }
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
