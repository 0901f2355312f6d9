// Package analysis is the repository's invariant lint suite: custom
// static analyzers, built only on the standard library's go/ast, go/parser
// and go/types (no external analysis framework), that turn the codebase's
// three load-bearing contracts into machine-checked invariants:
//
//   - determinism: byte-identical results across -parallel widths means no
//     map-iteration order may reach an output (check "detmap") and no wall
//     clock or global RNG may reach simulation state (check "walltime");
//   - zero-allocation hot paths (check "noalloc"): a function annotated
//     //mpichv:noalloc, and every module function it reaches through
//     static calls, must contain no allocating construct and no dynamic
//     dispatch (interface call, func-value call, defer). The walk stops at
//     //mpichv:noalloc and //mpichv:amortized <reason> boundaries, and a
//     call it cannot follow is a finding, so nothing is reached unseen.
//     The runtime allocation test (TestHotPathAllocations, alloc_test.go
//     at the repository root) executes every annotated root; the check
//     names the line when a regression appears;
//   - pool discipline: vproto's packet pool must never see a use after
//     PutPacket, a double put, or a leaked GetPacket (check
//     "pooldiscipline").
//
// Findings can be suppressed site-by-site with a
//
//	//lint:allow <check> <reason>
//
// directive on the offending line or on the line directly above it. The
// reason string is mandatory: a directive without one is itself a finding,
// so every suppression in the tree carries a written justification.
//
// The suite is exposed three ways: the cmd/lint multichecker binary, the
// repository-root lint_test.go (so `go test ./...` enforces it), and a CI
// job that uploads the findings report on failure.
package analysis

import (
	"fmt"
	"go/token"
	"path"
	"slices"
	"sort"
	"strings"
)

// Finding is one analyzer hit: a check name, a position, and a message
// explaining which invariant the site violates.
type Finding struct {
	Check string
	Pos   token.Position
	Msg   string
}

// String renders the finding in the conventional file:line: [check] form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Check, f.Msg)
}

// Check is one analyzer. Run reports raw findings for the loaded module;
// directive suppression is applied afterwards by the driver, so checks
// never need to know about //lint:allow.
type Check interface {
	// Name is the check's short identifier, as used in allow directives.
	Name() string
	// Desc is a one-line description for the multichecker's usage text.
	Desc() string
	// Run analyzes the module and returns its raw findings.
	Run(m *Module) []Finding
}

// Checks returns the suite in stable order.
func Checks() []Check {
	return []Check{DetMap{}, WallTime{}, NoAlloc{}, PoolDiscipline{}}
}

// KnownChecks returns the set of valid check names, used to validate
// //lint:allow directives and -checks selections.
func KnownChecks() map[string]bool {
	known := make(map[string]bool)
	for _, c := range Checks() {
		known[c.Name()] = true
	}
	return known
}

// SimCorePackages is the set of simulation-core package base names whose
// results must be a deterministic function of the seed. The determinism
// checks (detmap, walltime) apply only inside these packages (each ranges
// over Module.simCore); the allocation and pool checks apply everywhere.
var SimCorePackages = map[string]bool{
	"causal":      true,
	"vproto":      true,
	"daemon":      true,
	"cluster":     true,
	"sim":         true,
	"netmodel":    true,
	"eventlogger": true,
	"workload":    true,
	"faultplan":   true,
	"obs":         true,
}

// simCore returns the module's simulation-core packages.
func (m *Module) simCore() []*Package {
	var core []*Package
	for _, pkg := range m.Pkgs {
		if SimCorePackages[path.Base(pkg.Path)] {
			core = append(core, pkg)
		}
	}
	return core
}

// DirectiveCheck is the pseudo-check name under which malformed
// //lint:allow directives (missing reason, unknown check name) are
// reported. It cannot itself be suppressed.
const DirectiveCheck = "lint-directive"

// AllowPrefix is the comment prefix of a suppression directive.
const AllowPrefix = "//lint:allow"

// allowed is one (file, line, check) a well-formed //lint:allow directive
// suppresses.
type allowed struct {
	file  string
	line  int
	check string
}

// allowedSites parses every //lint:allow directive of one package into
// covered and returns a finding for each malformed one (no check named,
// unknown check, missing reason), which covers nothing. A directive covers
// its own line (trailing comment) and the next (comment-above idiom).
func allowedSites(pkg *Package, known map[string]bool, covered map[allowed]bool) []Finding {
	var bad []Finding
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, AllowPrefix)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				check, reason, _ := strings.Cut(strings.TrimSpace(rest), " ")
				switch {
				case check == "":
					bad = append(bad, Finding{DirectiveCheck, pos, "allow directive names no check"})
				case !known[check]:
					bad = append(bad, Finding{DirectiveCheck, pos, fmt.Sprintf("allow directive for unknown check %q", check)})
				case strings.TrimSpace(reason) == "":
					bad = append(bad, Finding{DirectiveCheck, pos,
						fmt.Sprintf("allow directive for %q carries no reason: every suppression must say why the invariant holds here", check)})
				default:
					covered[allowed{pos.Filename, pos.Line, check}] = true
					covered[allowed{pos.Filename, pos.Line + 1, check}] = true
				}
			}
		}
	}
	return bad
}

// Run runs the named checks (nil or empty means the full suite; an unknown
// name is an error) on a loaded module, drops the findings a well-formed
// //lint:allow directive covers, adds a finding for each malformed
// directive, and returns the result sorted by position.
func Run(m *Module, names []string) ([]Finding, error) {
	known := KnownChecks()
	for _, n := range names {
		if !known[n] {
			return nil, fmt.Errorf("unknown check %q", n)
		}
	}
	covered := make(map[allowed]bool)
	var findings []Finding
	for _, pkg := range m.Pkgs {
		findings = append(findings, allowedSites(pkg, known, covered)...)
	}
	for _, c := range Checks() {
		if len(names) > 0 && !slices.Contains(names, c.Name()) {
			continue
		}
		for _, f := range c.Run(m) {
			if !covered[allowed{f.Pos.Filename, f.Pos.Line, f.Check}] {
				findings = append(findings, f)
			}
		}
	}
	Sort(findings)
	return findings, nil
}

// Sort orders findings by filename, line, check name, then message, so
// reports are deterministic regardless of package load order.
func Sort(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Msg < b.Msg
	})
}
