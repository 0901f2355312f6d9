package experiment

import (
	"fmt"

	"mpichv/internal/cluster"
	"mpichv/internal/eventlogger"
	"mpichv/internal/harness"
	"mpichv/internal/sim"
	"mpichv/internal/workload"
)

// extDistELPoints is the deployment axis of the distributed-EL extension:
// logger count × stability dissemination design.
var extDistELPoints = []struct {
	servers int
	sync    eventlogger.SyncPolicy
}{
	{1, eventlogger.SyncExchange},
	{2, eventlogger.SyncExchange},
	{2, eventlogger.SyncBroadcast},
	{4, eventlogger.SyncExchange},
	{4, eventlogger.SyncBroadcast},
}

// extDistributedELReport is the reproduction's extension experiment: the
// paper's future-work proposal (§VI) of distributing the event logging over
// several Event Loggers. It runs the workload that saturates a single logger — LU
// class A on 16 nodes — under 1, 2 and 4 loggers with both stability
// dissemination designs the paper sketches, and reports the three
// quantities the distribution is supposed to improve: the residual
// piggyback volume, the logger backlog, and application performance.
//
// The extension is one sweep: LU.A.16 × Vcausal+EL × one variant per
// (logger count, sync design) point.
func extDistributedELReport(opts harness.Options) *Report {
	variants := make([]harness.Variant, len(extDistELPoints))
	for i, pt := range extDistELPoints {
		variants[i] = harness.Variant{
			Key:          fmt.Sprintf("el%d-%s", pt.servers, pt.sync),
			EventLoggers: pt.servers,
			ELSync:       pt.sync,
		}
	}
	res := harness.Run(&harness.SweepSpec{
		Name:       "ext-el",
		Workloads:  nasWorkloads([]workload.Spec{{Bench: "lu", Class: "A", NP: 16}}),
		Stacks:     []harness.Stack{{Key: "vcausal-el", Stack: cluster.StackVcausal, Reducer: "vcausal", UseEL: true}},
		Variants:   variants,
		MaxVirtual: 100 * sim.Minute,
		Probes:     []string{harness.ProbeELBacklog},
	}, opts)
	t := &Table{
		Title: "Extension (paper §VI): distributing the Event Logger — LU.A.16, Vcausal",
		Header: []string{"Event Loggers", "sync design", "piggyback %", "max EL backlog",
			"piggyback time (s)", "Mflop/s"},
		Notes: []string{
			"expected shape: one logger saturates under LU.16 (large backlog, residual",
			"piggyback — Figure 7's observation); adding loggers shrinks both; broadcast",
			"dissemination trims the residual further at the cost of extra control traffic",
		},
	}
	for i, pt := range extDistELPoints {
		cr := res.MustGet("lu.A.16", "vcausal-el", variants[i].Key)
		sync := string(pt.sync)
		if pt.servers == 1 {
			sync = "-"
		}
		st := cr.Stats
		t.AddRow(
			fmt.Sprintf("%d", pt.servers),
			sync,
			pct(st.PiggybackShare()),
			fmt.Sprintf("%d", int64(cr.Probes[harness.ProbeELBacklog])),
			fmt.Sprintf("%.3f", (st.SendPiggybackTime+st.RecvPiggybackTime).Seconds()),
			f1(cr.Mflops),
		)
	}
	return &Report{Tables: []*Table{t}, Sweeps: []*harness.Results{res}}
}
