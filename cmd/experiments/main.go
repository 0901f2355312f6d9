// Command experiments regenerates the paper's evaluation tables and
// figures through the parallel sweep harness. With no flags it runs
// everything in the paper's order, one worker per CPU, and prints the
// paper-style tables.
//
// Usage:
//
//	experiments [-fig 1|6a|6b|7|8a|8b|9|10[,...]] [-parallel N]
//	            [-json] [-csv] [-out DIR] [-trace DIR] [-q]
//	            [-cpuprofile FILE] [-memprofile FILE]
//	experiments -list
//
// -parallel sets the worker-pool width (0 = GOMAXPROCS); every cell of a
// figure's sweep grid is an independent simulation, so -parallel 1 and
// -parallel N produce identical tables and results. -json and -csv emit
// the structured sweep results behind each table: into DIR as one
// <sweep>.json / <sweep>.csv file per sweep when -out is given, otherwise
// to stdout (suppressing the tables). -trace enables the observability
// layer and writes one JSONL timeline plus one Chrome trace-event file
// (Perfetto-viewable) per cell into DIR/<sweep>/; tracing only observes,
// so traced results are identical to untraced ones. -cpuprofile and
// -memprofile write pprof profiles of the whole invocation (host CPU
// samples; the heap after a final collection, with cumulative allocation
// counts), for `go tool pprof`.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"mpichv/internal/experiment"
	"mpichv/internal/harness"
	"mpichv/internal/profile"
)

func main() {
	figs := flag.String("fig", "all", "comma-separated figures to regenerate (e.g. \"6a,7\"), or \"all\"")
	list := flag.Bool("list", false, "list available experiments and exit")
	parallel := flag.Int("parallel", 0, "sweep worker-pool size (0 = one per CPU)")
	jsonOut := flag.Bool("json", false, "emit structured sweep results as JSON")
	csvOut := flag.Bool("csv", false, "emit structured sweep results as CSV")
	outDir := flag.String("out", "", "directory for -json/-csv files (empty = stdout, suppressing tables)")
	traceDir := flag.String("trace", "", "directory for per-cell run timelines (JSONL + Chrome trace-event; empty = no tracing)")
	quiet := flag.Bool("q", false, "suppress progress reporting on stderr")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file when the run ends")
	flag.Parse()

	if *list {
		all, _ := resolveFigures("all")
		for _, e := range all {
			fmt.Println(e.Name)
		}
		return
	}

	exps, err := resolveFigures(*figs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v (try -list)\n", err)
		os.Exit(2)
	}

	opts := harness.Options{Parallel: *parallel, TraceDir: *traceDir}
	if !*quiet {
		opts.OnProgress = func(p harness.Progress) {
			if p.Done == p.Total || p.Done%25 == 0 {
				fmt.Fprintf(os.Stderr, "  [%s] %d/%d cells\n", p.Sweep, p.Done, p.Total)
			}
		}
		opts.OnError = func(e harness.CellError) { fmt.Fprintf(os.Stderr, "  cell error: %v\n", e) }
	}
	experiment.SetRunnerOptions(opts)

	if err := prepareOutDir(*outDir); err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(1)
	}
	stopProfiles, err := profile.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatal("%v", err)
	}
	// Structured output on stdout replaces the tables; with -out the
	// tables stay on stdout and files carry the structured results.
	printTables := !(*jsonOut || *csvOut) || *outDir != ""

	for _, e := range exps {
		start := time.Now()
		rep, err := generate(e.Run)
		if err != nil {
			fatal("experiment %s failed: %v", e.Name, err)
		}
		if printTables {
			fmt.Println(rep.Table.Render())
		}
		for _, res := range rep.Sweeps {
			if *jsonOut {
				data, err := res.JSON()
				if err != nil {
					fatal("marshal %s: %v", res.Name, err)
				}
				emit(*outDir, res.Name+".json", append(data, '\n'))
			}
			if *csvOut {
				data, err := res.CSV()
				if err != nil {
					fatal("csv %s: %v", res.Name, err)
				}
				emit(*outDir, res.Name+".csv", []byte(data))
			}
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "[%s regenerated in %.1fs]\n", e.Name, time.Since(start).Seconds())
		}
	}
	// fatal exits skip this: a failed run leaves no usable profile.
	if err := stopProfiles(); err != nil {
		fatal("%v", err)
	}
}

// resolveFigures expands the -fig flag into registry entries: "all" (every
// experiment but the smoke variants, in registry order, which is also what
// -list prints), or a comma-separated list where each entry may use the
// short form ("7") or the full name ("fig7"). Every entry must name a
// known experiment; an empty expansion (e.g. "-fig ,") is also an error.
func resolveFigures(figSpec string) ([]experiment.Experiment, error) {
	var exps []experiment.Experiment
	if figSpec == "all" {
		for _, e := range experiment.Experiments {
			if !e.Smoke {
				exps = append(exps, e)
			}
		}
		return exps, nil
	}
	find := func(name string) int {
		return slices.IndexFunc(experiment.Experiments, func(e experiment.Experiment) bool { return e.Name == name })
	}
	for _, f := range strings.Split(figSpec, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		i := find(f)
		if i < 0 {
			f = "fig" + strings.TrimPrefix(f, "fig")
			i = find(f)
		}
		if i < 0 {
			return nil, fmt.Errorf("unknown experiment %q", f)
		}
		exps = append(exps, experiment.Experiments[i])
	}
	if len(exps) == 0 {
		return nil, fmt.Errorf("-fig %q selects no experiments", figSpec)
	}
	return exps, nil
}

// prepareOutDir creates the -out directory (with parents) when one is
// requested; the empty value means stdout and needs no preparation.
func prepareOutDir(dir string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("cannot create -out directory: %v", err)
	}
	return nil
}

// generate runs one report generator, converting the harness's
// loud-failure panics (a cell that errored or did not complete feeding a
// table) into a clean CLI error.
func generate(gen func() *experiment.Report) (rep *experiment.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	return gen(), nil
}

// emit writes structured output to dir/name, or to stdout when dir is
// empty.
func emit(dir, name string, data []byte) {
	if dir == "" {
		os.Stdout.Write(data)
		return
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fatal("write %s: %v", path, err)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
