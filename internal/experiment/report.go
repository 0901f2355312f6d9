package experiment

import "mpichv/internal/harness"

// Report is one experiment artifact: the paper-style tables plus the raw
// sweep results (one per phase) they were rendered from, for
// machine-readable export.
type Report struct {
	Tables []*Table
	Sweeps []*harness.Results
}

// Experiment is one registry entry: a name, its report generator (a
// function of the worker-pool options its sweeps run with), and whether it
// is a CI smoke variant, which runs by name but is left out of the listing
// and of "all".
type Experiment struct {
	Name  string
	Run   func(harness.Options) *Report
	Smoke bool
}

// Experiments is the registry: the paper's figures in its order, then the
// reproduction's extension experiments, each smoke variant after its full
// grid.
var Experiments = []Experiment{
	{Name: "fig1", Run: fig01Report},
	{Name: "fig6a", Run: fig06aReport},
	{Name: "fig6b", Run: fig06bReport},
	{Name: "fig7", Run: fig07Report},
	{Name: "fig8", Run: fig08Report},
	{Name: "fig9", Run: fig09Report},
	{Name: "fig10", Run: fig10Report},
	{Name: "ext-el", Run: extDistributedELReport},
	{Name: "ext-elsweep", Run: extELServiceSweepReport},
	{Name: "ext-sched", Run: extSchedulerPoliciesReport},
	{Name: "ext-duplex", Run: extDuplexAblationReport},
	{Name: "ext-faultstorm", Run: extFaultstormReport},
	{Name: "ext-elcontribution", Run: extELContributionReport},
	{Name: "ext-elcontribution-smoke", Run: extELContributionSmokeReport, Smoke: true},
	{Name: "ext-partition", Run: extPartitionReport},
	{Name: "ext-partition-smoke", Run: extPartitionSmokeReport, Smoke: true},
	{Name: "ext-service", Run: extServiceReport},
	{Name: "ext-service-smoke", Run: extServiceSmokeReport, Smoke: true},
	{Name: "ext-np64-smoke", Run: extNP64SmokeReport, Smoke: true},
}
