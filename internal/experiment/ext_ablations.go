package experiment

import (
	"fmt"

	"mpichv/internal/checkpoint"
	"mpichv/internal/cluster"
	"mpichv/internal/eventlogger"
	"mpichv/internal/harness"
	"mpichv/internal/sim"
	"mpichv/internal/workload"
)

// extELServiceTimes is the per-request service-time axis of the Event
// Logger capacity ablation, in microseconds.
var extELServiceTimes = []sim.Time{5, 15, 30, 60, 120, 240}

// extELServiceSweepReport is an ablation over the Event Logger's service
// capacity: it locates the saturation onset the paper observes on LU.16 by
// sweeping the per-request service time. Below the knee, acknowledgments
// beat the application's send gaps and piggybacks vanish; above it, the
// backlog grows and residual piggyback reappears.
//
// It runs the EL capacity ablation as one sweep:
// LU.A.16 × Vcausal+EL × one variant per service time.
func extELServiceSweepReport() *Report {
	variants := make([]harness.Variant, len(extELServiceTimes))
	for i, perPacket := range extELServiceTimes {
		variants[i] = harness.Variant{
			Key: fmt.Sprintf("svc-%dus", int64(perPacket)),
			EL:  eventlogger.Config{PerPacket: perPacket * sim.Microsecond},
		}
	}
	res := sweep(&harness.SweepSpec{
		Name:       "ext-elsweep",
		Workloads:  nasWorkloads([]workload.Spec{{Bench: "lu", Class: "A", NP: 16}}),
		Stacks:     []harness.Stack{{Key: "vcausal-el", Stack: cluster.StackVcausal, Reducer: "vcausal", UseEL: true}},
		Variants:   variants,
		MaxVirtual: 100 * sim.Minute,
		Probes:     []string{harness.ProbeELBacklog},
	})
	t := &Table{
		Title:  "Ablation: Event Logger service time vs piggyback elimination (LU.A.16, Vcausal)",
		Header: []string{"per-request service (µs)", "piggyback %", "max EL backlog", "Mflop/s"},
		Notes: []string{
			"expected shape: elimination is near-total while service time is below the",
			"inter-arrival gap; past the knee, residual piggyback and backlog climb together",
		},
	}
	for i, perPacket := range extELServiceTimes {
		cr := res.MustGet("lu.A.16", "vcausal-el", variants[i].Key)
		t.AddRow(
			fmt.Sprintf("%d", int64(perPacket)),
			pct(cr.Stats.PiggybackShare()),
			fmt.Sprintf("%d", int64(cr.Probes[harness.ProbeELBacklog])),
			f1(cr.Mflops),
		)
	}
	return &Report{Name: "ext-elsweep", Table: t, Sweeps: []*harness.Results{res}}
}

// extSchedulerPolicies is the checkpoint scheduler axis of §IV-B.3.
var extSchedulerPolicies = []checkpoint.Policy{
	checkpoint.PolicyNone, checkpoint.PolicyRoundRobin, checkpoint.PolicyRandom,
}

// extSchedulerPoliciesReport is an ablation over the checkpoint scheduler
// policies of §IV-B.3: the paper argues uncoordinated scheduling should
// maximize sender-based log garbage collection. The probe is the sender-log
// memory high-water mark under identical checkpoint budgets.
//
// It runs the scheduler ablation as one sweep:
// BT.A.9 × Manetho+EL × one variant per policy.
func extSchedulerPoliciesReport() *Report {
	variants := make([]harness.Variant, len(extSchedulerPolicies))
	for i, pol := range extSchedulerPolicies {
		variants[i] = harness.Variant{
			Key:          string(pol),
			CkptPolicy:   pol,
			CkptInterval: 300 * sim.Millisecond,
		}
	}
	res := sweep(&harness.SweepSpec{
		Name: "ext-sched",
		Workloads: []harness.Workload{{
			Key:  "bt.A.9",
			Spec: workload.Spec{Bench: "bt", Class: "A", NP: 9},
			// Keep the store cost small so the policy is the variable.
			AppStateBytes: 1 << 20,
		}},
		Stacks:     []harness.Stack{{Key: "manetho-el", Stack: cluster.StackVcausal, Reducer: "manetho", UseEL: true}},
		Variants:   variants,
		MaxVirtual: 100 * sim.Minute,
	})
	t := &Table{
		Title:  "Ablation: checkpoint scheduler policy vs sender-log occupation (BT.A.9, Manetho+EL)",
		Header: []string{"policy", "checkpoints", "max sender log (KB)", "Mflop/s"},
		Notes: []string{
			"expected shape: spreading checkpoints (round-robin) garbage collects sender logs",
			"continuously; no checkpoints at all lets payload logs grow to the full run volume",
		},
	}
	for i, pol := range extSchedulerPolicies {
		cr := res.MustGet("bt.A.9", "manetho-el", variants[i].Key)
		t.AddRow(
			string(pol),
			fmt.Sprintf("%d", cr.Stats.Checkpoints),
			fmt.Sprintf("%d", cr.Stats.MaxSenderLogBytes/1024),
			f1(cr.Mflops),
		)
	}
	return &Report{Name: "ext-sched", Table: t, Sweeps: []*harness.Results{res}}
}

// extDuplexSpecs lists the kernels of the duplex ablation.
var extDuplexSpecs = []workload.Spec{
	{Bench: "bt", Class: "A", NP: 9},
	{Bench: "ft", Class: "A", NP: 8},
	{Bench: "cg", Class: "A", NP: 8},
}

// extDuplexAblationReport isolates the full-duplex advantage the paper
// credits for Vdummy beating MPICH-P4 on some NAS kernels: the same Vdaemon
// stack is run over full- and half-duplex links.
//
// It runs the duplex ablation as one sweep: benchmarks × Vdummy × {full,
// half} duplex wire models.
func extDuplexAblationReport() *Report {
	variants := []harness.Variant{{Key: "full-duplex"}, {Key: "half-duplex", HalfDuplex: true}}
	res := sweep(&harness.SweepSpec{
		Name:       "ext-duplex",
		Workloads:  nasWorkloads(extDuplexSpecs),
		Stacks:     []harness.Stack{{Key: "vdummy", Stack: cluster.StackVdummy}},
		Variants:   variants,
		MaxVirtual: 100 * sim.Minute,
	})
	t := &Table{
		Title:  "Ablation: link duplex mode under the Vdaemon stack (Mflop/s)",
		Header: []string{"Benchmark", "#proc", "full duplex", "half duplex", "gain"},
		Notes: []string{
			"expected shape: communication-dominated kernels (FT's all-to-all) gain the",
			"most from full duplex; compute-dominated BT gains the least",
		},
	}
	for _, spec := range extDuplexSpecs {
		var mflops [2]float64
		for i, v := range variants {
			mflops[i] = res.MustGet(spec.String(), "vdummy", v.Key).Mflops
		}
		t.AddRow(
			spec.Bench+"."+spec.Class,
			fmt.Sprintf("%d", spec.NP),
			f1(mflops[0]), f1(mflops[1]),
			fmt.Sprintf("%+.1f%%", 100*(mflops[0]/mflops[1]-1)),
		)
	}
	return &Report{Name: "ext-duplex", Table: t, Sweeps: []*harness.Results{res}}
}
