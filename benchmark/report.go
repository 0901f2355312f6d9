package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"mpichv/internal/harness"
)

// metricDef names one metric of BENCHMARK.json. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the simulator pays, measured untraced. The
// share of failed cells is the fifth end-to-end number; it is reported as
// attempted/failed counts because it must be, and is, always zero. The
// bounds are three times the spread measured between runs on the reference
// sandbox (README.md, "Noise").
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"sim_kmsgs_per_s", "kmsg/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// runValue reduces one run's samples of an end-to-end metric to the value
// the run reports. Host noise only ever adds time to a rep — a rep of
// fig7-el ranges from 3.8 to 5.5 s on an idle sandbox — so the timings
// report the fastest rep, which repeats to a few percent where the median
// of the same reps does not; memory and set-up report the median.
func runValue(name string, samples []float64) float64 {
	s := summarize(samples)
	switch name {
	case "wall_s":
		return s.Min
	case "sim_kmsgs_per_s":
		return s.Max
	}
	return s.Median
}

// perLayer lists every per-layer metric, layer (module) name first.
var perLayer = func() []metricDef {
	defs := []metricDef{
		// Exact simulated counts: they repeat bit for bit.
		{Name: "sim.virtual_s", Unit: "s", Better: "lower"},
		{Name: "daemon.app_msgs", Unit: "count", Better: "lower"},
		{Name: "daemon.control_msgs", Unit: "count", Better: "lower"},
		{Name: "daemon.app_mb", Unit: "MB", Better: "lower"},
		{Name: "daemon.max_senderlog_mb", Unit: "MB", Better: "lower"},
		{Name: "daemon.recoveries", Unit: "count", Better: "lower"},
		{Name: "daemon.recovery_virtual_ms", Unit: "ms", Better: "lower"},
		{Name: "daemon.recovery_collect_virtual_ms", Unit: "ms", Better: "lower"},
		{Name: "causal.piggyback_dets", Unit: "count", Better: "lower"},
		{Name: "causal.piggyback_mb", Unit: "MB", Better: "lower"},
		{Name: "causal.max_held_dets", Unit: "count", Better: "lower"},
		{Name: "eventlogger.dets_logged", Unit: "count", Better: "lower"},
		{Name: "checkpoint.images", Unit: "count", Better: "lower"},
		{Name: "checkpoint.mb", Unit: "MB", Better: "lower"},
		{Name: "failure.kills", Unit: "count", Better: "lower"},
		{Name: "workload.service_p99_ms", Unit: "ms", Better: "lower"},
		{Name: "workload.service_goodput_rps", Unit: "1/s", Better: "higher"},
		{Name: "workload.service_dropped", Unit: "count", Better: "lower"},
		// Host-time spans of the traced run (self times) and pool figures.
		{Name: "workload.build_s", Unit: "s", Better: "lower"},
		{Name: "cluster.new_s", Unit: "s", Better: "lower"},
		{Name: "cluster.prepare_s", Unit: "s", Better: "lower"},
		{Name: "sim.run_s", Unit: "s", Better: "lower"},
		{Name: "cluster.collect_s", Unit: "s", Better: "lower"},
		{Name: "sim.run_us_per_msg", Unit: "us", Better: "lower"},
		{Name: "harness.worker_busy_share", Unit: "share", Better: "higher"},
		{Name: "harness.parallel_speedup", Unit: "x", Better: "higher"},
		{Name: "bench.trace_overhead_share", Unit: "share", Better: "lower"},
		// Host resources of the untraced child.
		{Name: "host.cpu_s", Unit: "s", Better: "lower"},
		{Name: "host.sys_s", Unit: "s", Better: "lower"},
		{Name: "host.mallocs_per_msg", Unit: "count", Better: "lower"},
		{Name: "host.alloc_mb", Unit: "MB", Better: "lower"},
		{Name: "host.gc_cycles", Unit: "count", Better: "lower"},
		{Name: "host.gc_pause_ms", Unit: "ms", Better: "lower"},
		{Name: "host.goroutines_left", Unit: "count", Better: "lower"},
		{Name: "host.heap_retained_mb", Unit: "MB", Better: "lower"},
		// First-order cost model: shares of sim.run_s.
		{Name: "model.share.msg", Unit: "share", Better: "lower"},
		{Name: "model.share.piggyback", Unit: "share", Better: "lower"},
		{Name: "model.share.el", Unit: "share", Better: "lower"},
		{Name: "model.share.ckpt", Unit: "share", Better: "lower"},
		{Name: "model.share.compute_poll", Unit: "share", Better: "lower"},
		{Name: "model.residual_share", Unit: "share", Better: "lower"},
	}
	for _, u := range unitTable() {
		defs = append(defs, metricDef{Name: u.name, Unit: "ns", Better: "lower"})
	}
	return defs
}()

// --- statistics ---

// summary describes the samples of one timing. With five reps no tail
// percentile is claimed: median, quartiles and range.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// summarize computes the quartiles the way Python's statistics.quantiles
// (n=4, exclusive) does, so spreads compare with the driver's.
func summarize(samples []float64) summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return summary{}
	}
	q := func(i int) float64 {
		if n == 1 {
			return s[0]
		}
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return summary{Median: q(2), Q1: q(1), Q3: q(3), Min: s[0], Max: s[n-1], N: n}
}

func median(samples []float64) float64 { return summarize(samples).Median }

// --- one workload's measurements ---

// workloadResult is everything measured on one workload in one invocation.
type workloadResult struct {
	def    *workloadDef
	reps   []*repOut // untraced, one fresh child each
	setupS []float64 // mean set-up pass of each set-up child
	traced *repOut   // nil when no traced run was made
	// attempted and failed count cells over every run; failures lists every
	// correctness failure (failed cells, digest mismatches, shape checks).
	attempted, failed int
	failures          []string
}

func (r *workloadResult) fail(format string, args ...any) {
	r.failures = append(r.failures, r.def.name+": "+fmt.Sprintf(format, args...))
}

// msgs is the exact number of simulated messages of one run.
func msgs(cells []cellOut) float64 {
	var n int64
	for i := range cells {
		n += cells[i].Stats.AppMsgsSent + cells[i].Stats.ControlMsgs
	}
	return float64(n)
}

// endToEndSamples returns the per-rep samples of every end-to-end metric.
func (r *workloadResult) endToEndSamples() map[string][]float64 {
	out := map[string][]float64{"setup_s": r.setupS}
	for _, rep := range r.reps {
		wall := time.Duration(rep.WallNs).Seconds()
		out["wall_s"] = append(out["wall_s"], wall)
		out["sim_kmsgs_per_s"] = append(out["sim_kmsgs_per_s"], msgs(rep.Cells)/1e3/wall)
		out["peak_rss_mb"] = append(out["peak_rss_mb"], rep.Host.MaxRSSMB)
	}
	return out
}

// perLayerValues derives every per-layer metric. Counts come from the first
// rep (the digest check guarantees every rep agrees), host resources are
// medians over the untraced reps, spans come from the traced run, and units
// are the workload-independent unit costs.
func (r *workloadResult) perLayerValues(units map[string]float64) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	cells := r.reps[0].Cells
	for i := range cells {
		c, s := &cells[i], &cells[i].Stats
		m["sim.virtual_s"] += time.Duration(c.ElapsedNs).Seconds()
		m["daemon.app_msgs"] += float64(s.AppMsgsSent)
		m["daemon.control_msgs"] += float64(s.ControlMsgs)
		m["daemon.app_mb"] += float64(s.AppBytesSent) / mb
		m["daemon.max_senderlog_mb"] = max(m["daemon.max_senderlog_mb"], float64(s.MaxSenderLogBytes)/mb)
		m["daemon.recoveries"] += float64(s.Recoveries)
		m["daemon.recovery_virtual_ms"] += s.RecoveryTotal.Milliseconds()
		m["daemon.recovery_collect_virtual_ms"] += s.RecoveryEventCollection.Milliseconds()
		m["causal.piggyback_dets"] += float64(s.PiggybackEvents)
		m["causal.piggyback_mb"] += float64(s.PiggybackBytes) / mb
		m["causal.max_held_dets"] = max(m["causal.max_held_dets"], float64(s.MaxHeldDeterminants))
		m["eventlogger.dets_logged"] += float64(s.EventsLogged)
		m["checkpoint.images"] += float64(s.Checkpoints)
		m["checkpoint.mb"] += float64(s.CheckpointBytes) / mb
		m["failure.kills"] += c.Probes[harness.ProbeKills]
		m["workload.service_p99_ms"] += c.Probes[harness.ProbeP99Latency] / 1e6
		m["workload.service_goodput_rps"] += c.Probes[harness.ProbeGoodput]
		m["workload.service_dropped"] += c.Probes[harness.ProbeDroppedRequests]
	}
	nmsgs := msgs(cells)

	host := func(get func(*repOut) float64) float64 {
		var samples []float64
		for _, rep := range r.reps {
			samples = append(samples, get(rep))
		}
		return median(samples)
	}
	m["host.cpu_s"] = host(func(o *repOut) float64 { return o.Host.UserS + o.Host.SysS })
	m["host.sys_s"] = host(func(o *repOut) float64 { return o.Host.SysS })
	m["host.mallocs_per_msg"] = host(func(o *repOut) float64 { return float64(o.Host.Mallocs) / nmsgs })
	m["host.alloc_mb"] = host(func(o *repOut) float64 { return o.Host.AllocMB })
	m["host.gc_cycles"] = host(func(o *repOut) float64 { return float64(o.Host.GCCycles) })
	m["host.gc_pause_ms"] = host(func(o *repOut) float64 { return o.Host.GCPauseMs })
	m["host.goroutines_left"] = host(func(o *repOut) float64 { return float64(o.Host.GoroutinesLeft) })
	m["host.heap_retained_mb"] = host(func(o *repOut) float64 { return o.Host.HeapRetainedMB })

	if r.traced != nil {
		self := selfTimes(r.traced.Spans)
		for _, name := range []string{"workload.build", "cluster.new", "cluster.prepare", "sim.run", "cluster.collect"} {
			m[name+"_s"] = self[name].Seconds()
		}
		runS := self["sim.run"].Seconds()
		m["sim.run_us_per_msg"] = runS * 1e6 / nmsgs

		// Pool figures: the traced run is one goroutine, the untraced run
		// is sweepWorkers of them (one for a direct workload).
		workers := float64(sweepWorkers)
		if r.def.direct {
			workers = 1
		}
		wall := median(r.endToEndSamples()["wall_s"])
		untracedCells := host(func(o *repOut) float64 { return sumCellWall(o.Cells) })
		tracedCells := sumCellWall(r.traced.Cells)
		m["harness.worker_busy_share"] = untracedCells / (workers * wall)
		m["harness.parallel_speedup"] = tracedCells / wall
		m["bench.trace_overhead_share"] = tracedCells/untracedCells - 1

		if units != nil {
			// First-order cost model from outside: exact counts times unit
			// costs, as shares of the traced sim.run_s. Reducer costs are
			// the mean over the three reducers.
			mean := func(kind string) float64 {
				var sum float64
				for _, red := range reducers {
					sum += units["causal."+red+"."+kind]
				}
				return sum / float64(len(reducers))
			}
			runNs := runS * 1e9
			m["model.share.msg"] = m["daemon.app_msgs"] * units["daemon.msg_ns"] / runNs
			m["model.share.piggyback"] = (m["daemon.app_msgs"]*mean("emit_ns") + m["causal.piggyback_dets"]*mean("merge_ns_per_det")) / runNs
			m["model.share.el"] = m["eventlogger.dets_logged"] * (units["eventlogger.log_ack_ns"] + mean("stable_ns")) / runNs
			m["model.share.ckpt"] = m["checkpoint.images"] * units["checkpoint.store_ns"] / runNs
			m["model.share.compute_poll"] = r.reps[0].ComputeVirtualMs * units["daemon.compute_poll_ns"] / runNs
			m["model.residual_share"] = 1 - m["model.share.msg"] - m["model.share.piggyback"] -
				m["model.share.el"] - m["model.share.ckpt"] - m["model.share.compute_poll"]
		}
	}
	for name, v := range units {
		m[name] = v
	}
	return m
}

func sumCellWall(cells []cellOut) float64 {
	var ns int64
	for i := range cells {
		ns += cells[i].WallNs
	}
	return time.Duration(ns).Seconds()
}

// --- printing ---

func printWorkload(w io.Writer, r *workloadResult, units map[string]float64) {
	fmt.Fprintf(w, "\n== %s: %s\n", r.def.name, r.def.why)
	samples := r.endToEndSamples()
	for _, d := range endToEnd {
		s := summarize(samples[d.Name])
		fmt.Fprintf(w, "  %-34s %12.4f %-7s median %.4f q1 %.4f q3 %.4f min %.4f max %.4f n %d (bound %.0f%%, %s is better)\n",
			d.Name, runValue(d.Name, samples[d.Name]), d.Unit, s.Median, s.Q1, s.Q3, s.Min, s.Max, s.N, 100*d.Bound, d.Better)
	}
	share := 0.0
	if r.attempted > 0 {
		share = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "  %-34s %12.4f %-7s %d failed of %d cells attempted (bound 0)\n",
		"cells_failed_share", share, "share", r.failed, r.attempted)
	fmt.Fprintf(w, "  %-34s %s\n", "sim_digest", r.reps[0].Digest)
	values := r.perLayerValues(units)
	for _, d := range perLayer {
		if _, unit := units[d.Name]; unit {
			continue // printed once, after the workloads
		}
		if v, ok := values[d.Name]; ok {
			fmt.Fprintf(w, "  %-34s %12.4f %s\n", d.Name, v, d.Unit)
		}
	}
}

func printUnits(w io.Writer, units map[string]float64) {
	fmt.Fprintln(w, "\n== unit costs (workload-independent, host ns per operation)")
	for _, u := range unitTable() {
		fmt.Fprintf(w, "  %-34s %12.1f ns\n", u.name, units[u.name])
	}
}
