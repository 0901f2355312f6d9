// Command lint runs the repository's invariant lint suite
// (internal/analysis): detmap (no map-iteration order in simulation-core
// results), walltime (virtual time and seeded randomness only), noalloc
// (//mpichv:noalloc functions and everything they reach through static
// calls contain no allocating construct and no dynamic dispatch) and
// pooldiscipline (packet-pool lifecycle safety).
//
// Usage:
//
//	lint [-root DIR] [-checks LIST] [-json] [-report FILE] [./...]
//
// The only supported pattern is the module itself (./...), matching the
// multichecker convention; the suite always analyzes every package of the
// module rooted at the working directory (or -root). -checks scopes the
// run to a comma-separated subset of check names. Findings go to stderr
// (one file:line: [check] message per line, or a JSON array with -json)
// and to -report when set (the CI job uploads that file as an artifact on
// failure). The exit status is 1 when findings exist, 2 on a driver error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"mpichv/internal/analysis"
)

func main() {
	root := flag.String("root", ".", "module root to analyze (directory containing go.mod)")
	report := flag.String("report", "", "also write findings to this file (CI artifact)")
	checks := flag.String("checks", "", "comma-separated check names to run (default: all)")
	asJSON := flag.Bool("json", false, "emit findings as a JSON array instead of text")
	flag.Usage = usage
	flag.Parse()
	for _, arg := range flag.Args() {
		if arg != "./..." {
			fmt.Fprintf(os.Stderr, "lint: unsupported pattern %q (the suite always analyzes the whole module; use -root to point at it)\n", arg)
			os.Exit(2)
		}
	}
	var names []string
	for _, n := range strings.Split(*checks, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}

	m, err := analysis.LoadModule(*root)
	if err != nil {
		fail(err)
	}
	findings, err := analysis.Run(m, names)
	if err != nil {
		fail(err)
	}
	if len(findings) == 0 {
		return
	}
	var sb strings.Builder
	if *asJSON {
		enc := json.NewEncoder(&sb)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fail(err)
		}
	} else {
		for _, f := range findings {
			fmt.Fprintf(&sb, "%s\n", f)
		}
	}
	fmt.Fprint(os.Stderr, sb.String())
	if !*asJSON {
		fmt.Fprintf(os.Stderr, "lint: %d finding(s)\n", len(findings))
	}
	if *report != "" {
		if err := os.WriteFile(*report, []byte(sb.String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "lint: writing report: %v\n", err)
		}
	}
	os.Exit(1)
}

// fail reports a driver error and exits with status 2.
func fail(err error) {
	fmt.Fprintf(os.Stderr, "lint: %v\n", err)
	os.Exit(2)
}

// usage prints the flag help plus a one-line description of each check.
func usage() {
	fmt.Fprintf(os.Stderr, "usage: lint [-root DIR] [-checks LIST] [-json] [-report FILE] [./...]\n\nchecks:\n")
	for _, c := range analysis.Checks() {
		fmt.Fprintf(os.Stderr, "  %-16s %s\n", c.Name(), c.Desc())
	}
	fmt.Fprintf(os.Stderr, "\nsuppress one finding with `%s <check> <reason>` on or above the line;\nthe reason is mandatory.\n\nflags:\n", analysis.AllowPrefix)
	flag.PrintDefaults()
}
