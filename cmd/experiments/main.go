// Command experiments regenerates the paper's evaluation tables and
// figures through the parallel sweep harness. With no flags it runs
// everything in the paper's order, one worker per CPU, and prints the
// paper-style tables.
//
// Usage:
//
//	experiments [-fig 1|6a|6b|7|8|9|10[,...]] [-parallel N]
//	            [-out DIR] [-trace DIR] [-q]
//	            [-cpuprofile FILE] [-memprofile FILE]
//	experiments -list
//
// -parallel sets the worker-pool width (0 = GOMAXPROCS); every cell of a
// figure's sweep grid is an independent simulation, so -parallel 1 and
// -parallel N produce identical tables and results. -out writes the
// structured sweep results behind the tables into DIR, one <sweep>.json
// and one <sweep>.csv file per sweep; the tables stay on stdout. -trace
// enables the observability layer and writes one JSONL timeline plus one
// Chrome trace-event file (Perfetto-viewable) per cell into DIR/<sweep>/;
// tracing only observes, so traced results are identical to untraced
// ones. -cpuprofile and -memprofile write pprof profiles of the whole
// invocation (host CPU samples; the heap after a final collection, with
// cumulative allocation counts), for `go tool pprof`.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"mpichv/internal/experiment"
	"mpichv/internal/harness"
	"mpichv/internal/profile"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it returns the exit status — 2, with one line on
// stderr, for a bad flag or -fig value, and 1 for a failed experiment or
// write.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	figs := fs.String("fig", "all", "comma-separated figures to regenerate (e.g. \"6a,7\"), or \"all\"")
	list := fs.Bool("list", false, "list available experiments and exit")
	parallel := fs.Int("parallel", 0, "sweep worker-pool size (0 = one per CPU)")
	outDir := fs.String("out", "", "directory for each sweep's JSON and CSV results (empty = tables only)")
	traceDir := fs.String("trace", "", "directory for per-cell run timelines (JSONL + Chrome trace-event; empty = no tracing)")
	quiet := fs.Bool("q", false, "suppress progress reporting on stderr")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file when the run ends")
	fs.SetOutput(stderr)
	fs.Usage = func() {} // Parse reports a bad flag in one line
	switch err := fs.Parse(args); {
	case err == flag.ErrHelp:
		fs.PrintDefaults()
		return 0
	case err != nil:
		return 2
	}

	if *list {
		all, _ := resolveFigures("all")
		for _, e := range all {
			fmt.Fprintln(stdout, e.Name)
		}
		return 0
	}

	exps, err := resolveFigures(*figs)
	if err != nil {
		fmt.Fprintf(stderr, "%v (try -list)\n", err)
		return 2
	}

	opts := harness.Options{Parallel: *parallel, TraceDir: *traceDir}
	if !*quiet {
		opts.OnProgress = func(p harness.Progress) {
			if p.Err != "" {
				fmt.Fprintf(stderr, "  cell error: %s: cell %q: %s\n", p.Sweep, p.Cell.ID, p.Err)
			}
			if p.Done == p.Total || p.Done%25 == 0 {
				fmt.Fprintf(stderr, "  [%s] %d/%d cells\n", p.Sweep, p.Done, p.Total)
			}
		}
	}

	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, format+"\n", args...)
		return 1
	}
	if err := prepareOutDir(*outDir); err != nil {
		return fail("%v", err)
	}
	stopProfiles, err := profile.Start(*cpuProfile, *memProfile)
	if err != nil {
		return fail("%v", err)
	}
	write := func(name string, data []byte, err error) error {
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(*outDir, name), data, 0o644)
	}

	for _, e := range exps {
		start := time.Now()
		rep, err := generate(e.Run, opts)
		if err != nil {
			return fail("experiment %s failed: %v", e.Name, err)
		}
		for _, t := range rep.Tables {
			fmt.Fprintln(stdout, t.Render())
		}
		for _, res := range rep.Sweeps {
			if *outDir == "" {
				break
			}
			data, err := res.JSON()
			if err := write(res.Name+".json", append(data, '\n'), err); err != nil {
				return fail("json %s: %v", res.Name, err)
			}
			csv, err := res.CSV()
			if err := write(res.Name+".csv", []byte(csv), err); err != nil {
				return fail("csv %s: %v", res.Name, err)
			}
		}
		if !*quiet {
			fmt.Fprintf(stderr, "[%s regenerated in %.1fs]\n", e.Name, time.Since(start).Seconds())
		}
	}
	// An early return skips this: a failed run leaves no usable profile.
	if err := stopProfiles(); err != nil {
		return fail("%v", err)
	}
	return 0
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
// requested; the empty value writes no files and needs no preparation.
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
func generate(gen func(harness.Options) *experiment.Report, opts harness.Options) (rep *experiment.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	return gen(opts), nil
}
