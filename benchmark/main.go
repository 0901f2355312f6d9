// Command benchmark is the repository's benchmark: six named workloads,
// host-time and memory end-to-end metrics measured untraced in fresh child
// processes, and per-layer counts, spans and unit costs from a traced run.
// BENCHMARK.json at the repository root names every metric it prints;
// README.md in this directory explains the workloads and the method.
//
//	bash benchmark/run.sh                          # everything, 5 reps per workload
//	bash benchmark/run.sh -workload fig7-el -reps 3
//	bash benchmark/run.sh -aa                      # two back-to-back sets must agree
//	bash benchmark/run.sh --workload np64-cell --seed 7 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// options selects what one invocation measures.
type options struct {
	workloads []*workloadDef
	seed      int64
	// reps is the number of untraced reps per workload; when seconds is
	// positive the reps instead fill that many seconds (at least one).
	reps    int
	seconds float64
	traced  bool
	units   bool
	// smoke is the smoke test's scale: trimmed grids, short set-up and
	// unit-cost loops, and no child processes.
	smoke bool
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

func main() {
	var (
		names    = flag.String("workload", "", "comma-separated workloads to run (default: all six)")
		reps     = flag.Int("reps", 5, "untraced reps per workload, each in a fresh child process")
		seed     = flag.Int64("seed", 1, "feeds SweepSpec.BaseSeed, ServiceConfig.Seed and faultplan.Plan.Seed")
		traced   = flag.Bool("traced", true, "also make the traced run that yields the span metrics")
		units    = flag.Bool("units", true, "also measure the workload-independent unit costs")
		aa       = flag.Bool("aa", false, "run the untraced set twice and require the two to agree within the bounds")
		jsonPath = flag.String("json", "", "write the machine-readable results to this file")
		traceOut = flag.String("trace-out", "", "write each traced run's spans as JSON into this directory")
		seconds  = flag.Float64("seconds", 0, "driver mode: fill this many seconds with reps of one workload and print one JSON line")
		trace    = flag.Int("trace", 0, "driver mode: 0 prints the end-to-end metrics, 1 the per-layer metrics")
		child    = flag.String("child", "", "internal: run as a measurement child with this role")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *child != "" {
		os.Exit(childMain(childReq{Role: *child, Workload: *names, Seed: *seed}))
	}

	opts := options{seed: *seed, reps: *reps, seconds: *seconds, traced: *traced, units: *units}
	if *names == "" {
		opts.workloads = workloads()
	}
	for _, name := range strings.Split(*names, ",") {
		if name == "" {
			continue
		}
		w := findWorkload(name)
		if w == nil {
			fatalf("unknown workload %q", name)
		}
		opts.workloads = append(opts.workloads, w)
	}
	if opts.reps < 1 {
		fatalf("-reps must be at least 1")
	}

	switch {
	case *seconds > 0:
		if len(opts.workloads) != 1 {
			fatalf("driver mode (-seconds) takes exactly one -workload")
		}
		os.Exit(driverMain(opts, *trace == 1))
	case *aa:
		os.Exit(aaMain(opts))
	}

	results, unitCosts, err := measureAll(opts)
	if err != nil {
		fatalf("%v", err)
	}
	for _, r := range results {
		printWorkload(os.Stdout, r, unitCosts)
	}
	if unitCosts != nil {
		printUnits(os.Stdout, unitCosts)
	}
	failures := crossChecks(results)
	for _, r := range results {
		failures = append(failures, r.failures...)
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, opts, results, unitCosts, failures); err != nil {
			fatalf("%v", err)
		}
	}
	if *traceOut != "" {
		if err := writeSpans(*traceOut, results); err != nil {
			fatalf("%v", err)
		}
	}
	fmt.Printf("\ncorrectness: %d failures\n", len(failures))
	for _, f := range failures {
		fmt.Println("  FAIL", f)
	}
	if len(failures) > 0 {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// --- measuring ---

// setupSamples is the number of set-up children per workload; setup_s is
// their median.
const setupSamples = 7

// measureWorkload runs one workload's children — set-up passes, untraced
// reps, optionally the traced run — and checks what they computed.
func measureWorkload(opts options, w *workloadDef) (*workloadResult, error) {
	r := &workloadResult{def: w}
	req := childReq{Workload: w.name, Seed: opts.seed, Smoke: opts.smoke}

	req.Role = "setup"
	for i := 0; i < setupSamples; i++ {
		var passS float64
		if err := spawn(req, &passS); err != nil {
			return nil, err
		}
		r.setupS = append(r.setupS, passS)
	}

	// Closed loop: the next rep starts when the previous one ends. In
	// driver mode a rep starts only while it is expected to end within
	// --seconds, so the reps of a run never take longer (the first aside).
	req.Role = "rep"
	start := time.Now()
	moreReps := func() bool {
		n := len(r.reps)
		if opts.seconds == 0 {
			return n < opts.reps
		}
		elapsed := time.Since(start).Seconds()
		return n == 0 || elapsed+elapsed/float64(n) <= opts.seconds
	}
	for moreReps() {
		rep := &repOut{}
		if err := spawn(req, rep); err != nil {
			return nil, err
		}
		r.reps = append(r.reps, rep)
	}
	if opts.traced {
		req.Role = "traced"
		r.traced = &repOut{}
		if err := spawn(req, r.traced); err != nil {
			return nil, err
		}
	}
	r.verify()
	return r, nil
}

// verify applies the correctness checks: no failed cell in any run, one
// digest across every rep and the traced run, and the workload's own
// paper-shape check.
func (r *workloadResult) verify() {
	runs := append([]*repOut(nil), r.reps...)
	if r.traced != nil {
		runs = append(runs, r.traced)
	}
	for i, run := range runs {
		for j := range run.Cells {
			r.attempted++
			if why := cellFailure(&run.Cells[j]); why != "" {
				r.failed++
				r.fail("run %d cell %s: %s", i, run.Cells[j].ID, why)
			}
		}
		if run.Digest != runs[0].Digest {
			what := fmt.Sprintf("rep %d", i)
			if run == r.traced {
				what = "the traced run"
			}
			r.fail("sim_digest of %s is %s, of rep 0 %s", what, run.Digest, runs[0].Digest)
		}
	}
	if r.def.check != nil {
		for _, f := range r.def.check(r.reps[0].Cells) {
			r.fail("%s", f)
		}
	}
}

// measureAll measures every selected workload, then the unit costs.
func measureAll(opts options) ([]*workloadResult, map[string]float64, error) {
	var results []*workloadResult
	for _, w := range opts.workloads {
		fmt.Fprintf(os.Stderr, "benchmark: measuring %s\n", w.name)
		r, err := measureWorkload(opts, w)
		if err != nil {
			return nil, nil, err
		}
		results = append(results, r)
	}
	var unitCosts map[string]float64
	if opts.units {
		fmt.Fprintln(os.Stderr, "benchmark: measuring unit costs")
		if err := spawn(childReq{Role: "units", Smoke: opts.smoke}, &unitCosts); err != nil {
			return nil, nil, err
		}
	}
	return results, unitCosts, nil
}

// crossChecks are the checks that need two workloads of one invocation:
// when both halves of Figure 7 ran, the Event Logger must shrink every
// cell's piggybacked volume.
func crossChecks(results []*workloadResult) []string {
	byName := make(map[string]*workloadResult)
	for _, r := range results {
		byName[r.def.name] = r
	}
	el, noel := byName["fig7-el"], byName["fig7-noel"]
	if el == nil || noel == nil {
		return nil
	}
	var fails []string
	for _, f := range checkFig7Pair(el.reps[0].Cells, noel.reps[0].Cells) {
		fails = append(fails, "fig7-el vs fig7-noel: "+f)
	}
	return fails
}

// --- driver mode ---

// driverMain is the contract of the benchmark driver: one workload, reps
// filling --seconds, and as the last line of standard output one JSON
// object with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). With --trace 1 the untraced reps get a third of the time; the
// traced run, on one goroutine, and the unit costs take about the rest.
func driverMain(opts options, perLayerMode bool) int {
	opts.traced, opts.units = perLayerMode, perLayerMode
	if perLayerMode {
		opts.seconds /= 3
	}
	results, unitCosts, err := measureAll(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	r := results[0]
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "benchmark: FAIL", f)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(r.failures) == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   driverMetrics(r, unitCosts, perLayerMode),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("%s: %d reps, sim_digest %s\n%s\n", r.def.name, len(r.reps), r.reps[0].Digest, line)
	return 0
}

// metricValue is one metric of the driver line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverMetrics returns every end-to-end metric (its run value) or every
// per-layer metric of one workload, by name.
func driverMetrics(r *workloadResult, units map[string]float64, perLayerMode bool) map[string]metricValue {
	metrics := make(map[string]metricValue)
	if perLayerMode {
		values := r.perLayerValues(units)
		for _, d := range perLayer {
			metrics[d.Name] = metricValue{values[d.Name], d.Unit}
		}
		return metrics
	}
	samples := r.endToEndSamples()
	for _, d := range endToEnd {
		metrics[d.Name] = metricValue{runValue(d.Name, samples[d.Name]), d.Unit}
	}
	return metrics
}

// --- A/A ---

// aaMain runs the untraced set twice back to back and compares the two run
// values of every workload x end-to-end metric against the metric's bound:
// the benchmark's own noise must fit inside the bounds it enforces.
func aaMain(opts options) int {
	opts.traced, opts.units = false, false
	var sets [2][]*workloadResult
	for i := range sets {
		fmt.Fprintf(os.Stderr, "benchmark: A/A set %d\n", i+1)
		var err error
		if sets[i], _, err = measureAll(opts); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	bad := 0
	fmt.Printf("%-18s %-16s %12s %12s %8s %6s\n", "workload", "metric", "A", "A'", "diff", "bound")
	for i, a := range sets[0] {
		sa, sb := a.endToEndSamples(), sets[1][i].endToEndSamples()
		for _, d := range endToEnd {
			ma, mb := runValue(d.Name, sa[d.Name]), runValue(d.Name, sb[d.Name])
			diff := (mb - ma) / ma
			verdict := ""
			if math.Abs(diff) > d.Bound {
				verdict = "  EXCEEDS"
				bad++
			}
			fmt.Printf("%-18s %-16s %12.4f %12.4f %+7.1f%% %5.0f%%%s\n",
				a.def.name, d.Name, ma, mb, 100*diff, 100*d.Bound, verdict)
		}
		for _, r := range []*workloadResult{a, sets[1][i]} {
			for _, f := range r.failures {
				fmt.Println("FAIL", f)
				bad++
			}
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// --- files ---

// writeJSON writes the machine-readable results.
func writeJSON(path string, opts options, results []*workloadResult, units map[string]float64, failures []string) error {
	type e2e struct {
		metricDef
		Value float64 `json:"value"`
		summary
	}
	type wl struct {
		Name      string             `json:"name"`
		Why       string             `json:"why"`
		EndToEnd  []e2e              `json:"end_to_end"`
		PerLayer  map[string]float64 `json:"per_layer"`
		SimDigest string             `json:"sim_digest"`
		Attempted int                `json:"cells_attempted"`
		Failed    int                `json:"cells_failed"`
	}
	doc := struct {
		GoVersion string   `json:"go_version"`
		NProc     int      `json:"nproc"`
		Commit    string   `json:"commit"`
		Seed      int64    `json:"seed"`
		Workloads []wl     `json:"workloads"`
		Failures  []string `json:"failures"`
	}{GoVersion: runtime.Version(), NProc: runtime.NumCPU(), Commit: "unknown", Seed: opts.seed, Failures: failures}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				doc.Commit = s.Value
			}
		}
	}
	for _, r := range results {
		w := wl{Name: r.def.name, Why: r.def.why, PerLayer: r.perLayerValues(units),
			SimDigest: r.reps[0].Digest, Attempted: r.attempted, Failed: r.failed}
		samples := r.endToEndSamples()
		for _, d := range endToEnd {
			w.EndToEnd = append(w.EndToEnd, e2e{d, runValue(d.Name, samples[d.Name]), summarize(samples[d.Name])})
		}
		doc.Workloads = append(doc.Workloads, w)
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeSpans writes each traced run's spans into dir, one file per workload.
func writeSpans(dir string, results []*workloadResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, r := range results {
		if r.traced == nil {
			continue
		}
		data, err := json.Marshal(r.traced.Spans)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, r.def.name+".spans.json"), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
