package analysis_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"mpichv/internal/analysis"
)

// update regenerates the golden files from the current analyzer output:
//
//	go test ./internal/analysis -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden files")

// fixtureRoot is the one fixture module: a directory per fixture, each
// with a golden of the same name.
var fixtureRoot = filepath.Join("testdata", "src")

// fixtureModule loads the fixture module once for all tests (the stdlib
// source importer is the expensive part).
var fixtureModule = sync.OnceValues(func() (*analysis.Module, error) {
	return analysis.LoadModule(fixtureRoot)
})

// fixtureFindings runs the named checks (none means the full suite) over
// the fixture module through the driver, directive suppression included,
// and returns the findings per fixture directory.
func fixtureFindings(t *testing.T, names ...string) map[string][]analysis.Finding {
	t.Helper()
	if testing.Short() {
		t.Skip("fixture type-checking loads the stdlib from source; skipped in -short")
	}
	m, err := fixtureModule()
	if err != nil {
		t.Fatalf("load fixture module: %v", err)
	}
	findings, err := analysis.Run(m, names)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	byFixture := make(map[string][]analysis.Finding)
	for _, f := range findings {
		rel, err := filepath.Rel(fixtureRoot, f.Pos.Filename)
		if err != nil {
			t.Fatalf("finding outside the fixture module: %v", f)
		}
		fixture, _, _ := strings.Cut(filepath.ToSlash(rel), "/")
		byFixture[fixture] = append(byFixture[fixture], f)
	}
	return byFixture
}

// render formats findings with basenames so goldens are independent of
// the checkout path.
func render(findings []analysis.Finding) string {
	var sb strings.Builder
	for _, f := range findings {
		fmt.Fprintf(&sb, "%s:%d: [%s] %s\n", filepath.Base(f.Pos.Filename), f.Pos.Line, f.Check, f.Msg)
	}
	return sb.String()
}

// checkGolden compares rendered findings against testdata/<name>.golden,
// rewriting the golden under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to create): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("findings mismatch for %s\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// TestGolden runs the full suite over the fixture module and compares
// each fixture's surviving findings (after //lint:allow suppression) with
// the committed golden file. The fixtures cover: each violation shape,
// each accepted idiom, suppression by a well-formed directive, and
// reasonless, unknown-check and retired-check directives being findings
// themselves. Running every check on every fixture also pins that no
// check fires outside its own fixture.
func TestGolden(t *testing.T) {
	byFixture := fixtureFindings(t)
	for _, fixture := range []string{"detmapfix", "walltimefix", "noallocfix", "hotcallfix", "poolfix"} {
		t.Run(fixture, func(t *testing.T) {
			checkGolden(t, fixture, render(byFixture[fixture]))
		})
	}
}

// TestDriverScopesDeterminismChecks proves detmap/walltime apply only to
// simulation-core packages: identical code is flagged in fixture package
// "sim" and accepted in fixture package "tools".
func TestDriverScopesDeterminismChecks(t *testing.T) {
	byFixture := fixtureFindings(t)
	simFindings := byFixture["sim"]
	if got := len(simFindings); got != 2 {
		t.Fatalf("sim fixture: want 2 findings (walltime, detmap), got %d: %v", got, simFindings)
	}
	seen := map[string]bool{}
	for _, f := range simFindings {
		seen[f.Check] = true
	}
	if !seen["walltime"] || !seen["detmap"] {
		t.Fatalf("sim fixture: want one walltime and one detmap finding, got %v", simFindings)
	}
	if toolsFindings := byFixture["tools"]; len(toolsFindings) != 0 {
		t.Fatalf("tools fixture: determinism checks must not apply outside simulation-core packages, got %v", toolsFindings)
	}
}

// TestDirectiveValidation covers the directive grammar: a reasonless or
// unknown-check directive is a finding under the non-suppressible
// lint-directive pseudo-check, whichever checks run, and a retired check
// name is an unknown one.
func TestDirectiveValidation(t *testing.T) {
	byFixture := fixtureFindings(t, "pooldiscipline")
	for fixture, want := range map[string]string{
		"detmapfix":  "no reason",
		"hotcallfix": `unknown check "hotcall"`,
	} {
		got := byFixture[fixture]
		if len(got) != 1 || got[0].Check != analysis.DirectiveCheck || !strings.Contains(got[0].Msg, want) {
			t.Errorf("%s: want exactly one %s finding containing %q, got %v", fixture, analysis.DirectiveCheck, want, got)
		}
	}
	if _, err := analysis.Run(&analysis.Module{}, []string{"noalloctrans"}); err == nil {
		t.Errorf("Run accepted the retired check name noalloctrans")
	}
}

// TestCheckMetadata pins the check names the directives reference.
func TestCheckMetadata(t *testing.T) {
	want := []string{"detmap", "walltime", "noalloc", "pooldiscipline"}
	checks := analysis.Checks()
	if len(checks) != len(want) {
		t.Fatalf("want %d checks, got %d", len(want), len(checks))
	}
	known := analysis.KnownChecks()
	for i, c := range checks {
		if c.Name() != want[i] {
			t.Errorf("check %d: want name %q, got %q", i, want[i], c.Name())
		}
		if c.Desc() == "" {
			t.Errorf("check %s: empty description", c.Name())
		}
		if !known[c.Name()] {
			t.Errorf("KnownChecks missing %q", c.Name())
		}
	}
	if len(known) != len(want) {
		t.Errorf("KnownChecks has %d names, want %d: %v", len(known), len(want), known)
	}
}

// TestTransitiveGolden is TestGolden for the fixture of the noalloc walk:
// chains across functions and packages, boundaries, and dynamic calls at
// and below the root.
func TestTransitiveGolden(t *testing.T) {
	checkGolden(t, "transfix", render(fixtureFindings(t)["transfix"]))
}

// TestTransitiveCatchesDeepHelper is the regression acceptance case: an
// allocation and a dynamic call two static hops below the annotated root
// are both caught, and the findings name the full chain.
func TestTransitiveCatchesDeepHelper(t *testing.T) {
	const chain = "transfix.Root -> transfix.levelOne -> transfix.levelTwo"
	findings := fixtureFindings(t, "noalloc")["transfix"]
	for _, construct := range []string{"make allocates", "call through func value Hook"} {
		found := false
		for _, f := range findings {
			found = found || strings.Contains(f.Msg, chain) && strings.Contains(f.Msg, construct)
		}
		if !found {
			t.Errorf("no noalloc finding for %q naming the chain %q", construct, chain)
		}
	}
}
