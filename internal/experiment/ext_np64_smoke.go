package experiment

import (
	"mpichv/internal/harness"
	"mpichv/internal/sim"
	"mpichv/internal/workload"
)

// The NP-64 smoke is the scaling counterpart of Figure 7: the same
// piggyback-share measurement, on a world four times larger than anything
// the paper's cluster ran. It exists to keep the causality state honest in
// CI — per-active-peer reducer tables and interval-coded vector sizes are
// exactly the machinery that makes an NP-64 cell affordable — and to pin
// the determinism guarantee at this scale: CI runs the grid at two
// worker-pool widths and requires byte-identical results.

// extNP64Specs is the smoke grid: one power-of-two CG row (CG requires
// pow2 process counts; 64 is the first size beyond the paper's cluster).
var extNP64Specs = []workload.Spec{
	{Bench: "cg", Class: "A", NP: 64},
}

// extNP64SmokeReport runs the NP-64 scaling smoke grid: the CG.A.64
// piggyback sweep across the three reducers (with EL); it tabulates the
// piggyback share, Figure-7 style.
func extNP64SmokeReport(opts harness.Options) *Report {
	// The three reducers with the Event Logger: the EL acks drive the
	// stable-vector path whose interval coding the smoke guards.
	res := harness.Run(&harness.SweepSpec{
		Name:       "ext-np64-smoke",
		Workloads:  nasWorkloads(extNP64Specs),
		Stacks:     elStacks,
		MaxVirtual: 30 * sim.Minute,
	}, opts)
	t := &Table{
		Title:  "NP-64 smoke: piggybacked data as % of exchanged application data (sparse state)",
		Header: stackHeader(elStacks, "Benchmark", "#proc"),
		Notes: []string{
			"fig7-style measurement at four times the paper's largest process count;",
			"expected shape: EL acknowledgments keep the share small for all three reducers",
		},
	}
	specRows(t, res, extNP64Specs, elStacks, piggybackShare)
	return &Report{Tables: []*Table{t}, Sweeps: []*harness.Results{res}}
}
