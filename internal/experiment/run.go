package experiment

import (
	"mpichv/internal/cluster"
	"mpichv/internal/harness"
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
)

// nasWorkloads converts NAS specs into harness form, keyed "bench.Class.NP".
func nasWorkloads(specs []workload.Spec) []harness.Workload {
	out := make([]harness.Workload, len(specs))
	for i, spec := range specs {
		out[i] = harness.Workload{Key: spec.String(), Spec: spec}
	}
	return out
}

// runnerOpts are the harness options every figure sweep runs with; the CLI
// (and any other embedder) installs parallelism and progress reporting via
// SetRunnerOptions before regenerating figures.
var runnerOpts harness.Options

// SetRunnerOptions installs the worker-pool options used by every figure
// sweep (parallel width, cell timeout, progress and error callbacks).
func SetRunnerOptions(o harness.Options) { runnerOpts = o }

// RunnerOptions returns the currently installed sweep options.
func RunnerOptions() harness.Options { return runnerOpts }

// sweep executes one grid through the shared worker pool options.
func sweep(spec *harness.SweepSpec) *harness.Results { return harness.Run(spec, runnerOpts) }
