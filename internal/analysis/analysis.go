// Package analysis is the repository's invariant lint suite: custom
// static analyzers, built only on the standard library's go/ast, go/parser
// and go/types (no external analysis framework), that turn the codebase's
// three load-bearing contracts into machine-checked invariants:
//
//   - determinism: byte-identical results across -parallel widths means no
//     map-iteration order may reach an output (check "detmap") and no wall
//     clock or global RNG may reach simulation state (check "walltime");
//   - zero-allocation hot paths: functions annotated //mpichv:noalloc must
//     contain no allocating constructs (check "noalloc"), must not reach an
//     allocating helper through any chain of module-internal calls (check
//     "noalloctrans", which walks a conservative whole-module call graph
//     and stops only at //mpichv:noalloc or //mpichv:amortized <reason>
//     boundaries), and must avoid dynamic dispatch that defeats inlining
//     (check "hotcall") — together giving the runtime allocation test
//     (TestHotPathAllocations, alloc_test.go at the repository root) a
//     static twin that names the exact line when a regression appears;
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
	"go/ast"
	"go/token"
	"path"
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

// Check is one analyzer. Run reports raw findings for a loaded package;
// directive suppression is applied afterwards by ApplyDirectives, so
// checks never need to know about //lint:allow.
type Check interface {
	// Name is the check's short identifier, as used in allow directives.
	Name() string
	// Desc is a one-line description for the multichecker's usage text.
	Desc() string
	// Run analyzes one package and returns its raw findings.
	Run(pkg *Package) []Finding
}

// Checks returns the per-package suite in stable order. Whole-module
// checks live in ModuleChecks.
func Checks() []Check {
	return []Check{DetMap{}, WallTime{}, NoAlloc{}, HotCall{}, PoolDiscipline{}}
}

// KnownChecks returns the set of valid check names — per-package and
// module-level alike — used to validate //lint:allow directives and
// -checks selections.
func KnownChecks() map[string]bool {
	known := make(map[string]bool)
	for _, c := range Checks() {
		known[c.Name()] = true
	}
	for _, mc := range ModuleChecks() {
		known[mc.Name()] = true
	}
	return known
}

// SimCorePackages is the set of simulation-core package base names whose
// results must be a deterministic function of the seed. The determinism
// checks (detmap, walltime) apply only inside these packages; the
// allocation and pool checks apply everywhere.
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

// simCore reports whether pkg is one of the simulation-core packages.
func simCore(pkg *Package) bool {
	return SimCorePackages[path.Base(pkg.Path)]
}

// DirectiveCheck is the pseudo-check name under which malformed
// //lint:allow directives (missing reason, unknown check name) are
// reported. It cannot itself be suppressed.
const DirectiveCheck = "lint-directive"

// directive is one parsed //lint:allow comment.
type directive struct {
	check  string
	reason string
	line   int // line the directive comment sits on
	pos    token.Position
}

// AllowPrefix is the comment prefix of a suppression directive.
const AllowPrefix = "//lint:allow"

// parseDirectives extracts every //lint:allow directive of one file,
// reporting malformed ones (missing reason, unknown check) as findings.
func parseDirectives(pkg *Package, file *ast.File, known map[string]bool) ([]directive, []Finding) {
	var ds []directive
	var bad []Finding
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, AllowPrefix) {
				continue
			}
			pos := pkg.Fset.Position(c.Pos())
			rest := strings.TrimSpace(strings.TrimPrefix(c.Text, AllowPrefix))
			check, reason, _ := strings.Cut(rest, " ")
			reason = strings.TrimSpace(reason)
			if check == "" {
				bad = append(bad, Finding{DirectiveCheck, pos, "allow directive names no check"})
				continue
			}
			if !known[check] {
				bad = append(bad, Finding{DirectiveCheck, pos, fmt.Sprintf("allow directive for unknown check %q", check)})
				continue
			}
			if reason == "" {
				bad = append(bad, Finding{DirectiveCheck, pos,
					fmt.Sprintf("allow directive for %q carries no reason: every suppression must say why the invariant holds here", check)})
				continue
			}
			ds = append(ds, directive{check: check, reason: reason, line: pos.Line, pos: pos})
		}
	}
	return ds, bad
}

// ApplyDirectives drops findings covered by a well-formed //lint:allow
// directive (same line, or the line directly above the finding) and adds
// findings for malformed directives. It is exported so the golden-file
// tests exercise suppression exactly as the driver applies it.
func ApplyDirectives(pkg *Package, findings []Finding) []Finding {
	covered := make(map[string]map[int]map[string]bool)
	out := coverageOf(pkg, KnownChecks(), covered)
	for _, f := range findings {
		if lines := covered[f.Pos.Filename]; lines != nil && lines[f.Pos.Line][f.Check] {
			continue
		}
		out = append(out, f)
	}
	return out
}

// coverageOf parses one package's //lint:allow directives into the shared
// covered[filename][line][check] map and returns the malformed-directive
// findings. A directive covers its own line (trailing comment) and the
// next line (comment-above idiom).
func coverageOf(pkg *Package, known map[string]bool, covered map[string]map[int]map[string]bool) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		ds, bad := parseDirectives(pkg, file, known)
		out = append(out, bad...)
		for _, d := range ds {
			name := pkg.Fset.Position(file.Pos()).Filename
			if covered[name] == nil {
				covered[name] = make(map[int]map[string]bool)
			}
			for _, ln := range []int{d.line, d.line + 1} {
				if covered[name][ln] == nil {
					covered[name][ln] = make(map[string]bool)
				}
				covered[name][ln][d.check] = true
			}
		}
	}
	return out
}

// RunPackage runs every applicable check on one loaded package and
// applies directive suppression. The determinism checks run only on
// simulation-core packages; allocation and pool checks run everywhere.
func RunPackage(pkg *Package) []Finding {
	var raw []Finding
	for _, c := range Checks() {
		switch c.(type) {
		case DetMap, WallTime:
			if !simCore(pkg) {
				continue
			}
		}
		raw = append(raw, c.Run(pkg)...)
	}
	return ApplyDirectives(pkg, raw)
}

// Run loads every package found under root (recursively, skipping
// testdata and hidden directories), runs the full suite — per-package and
// module-level — and returns the surviving findings sorted by position.
func Run(root string) ([]Finding, error) {
	return RunChecks(root, nil)
}

// RunChecks is Run scoped to a subset of check names (nil or empty means
// the full suite). An unknown check name is an error.
func RunChecks(root string, names []string) ([]Finding, error) {
	m, err := LoadModule(root)
	if err != nil {
		return nil, err
	}
	return RunModuleChecks(m, names)
}

// RunModuleChecks is RunChecks on an already-loaded module. Directive
// suppression is applied module-wide, so a //lint:allow in any package
// covers module-check findings reported against that package's files.
func RunModuleChecks(m *Module, names []string) ([]Finding, error) {
	known := KnownChecks()
	enabled := make(map[string]bool)
	if len(names) == 0 {
		enabled = known
	} else {
		for _, n := range names {
			if !known[n] {
				return nil, fmt.Errorf("unknown check %q", n)
			}
			enabled[n] = true
		}
	}
	var raw []Finding
	for _, pkg := range m.Pkgs {
		for _, c := range Checks() {
			if !enabled[c.Name()] {
				continue
			}
			switch c.(type) {
			case DetMap, WallTime:
				if !simCore(pkg) {
					continue
				}
			}
			raw = append(raw, c.Run(pkg)...)
		}
	}
	for _, mc := range ModuleChecks() {
		if !enabled[mc.Name()] {
			continue
		}
		raw = append(raw, mc.RunModule(m)...)
	}
	covered := make(map[string]map[int]map[string]bool)
	var findings []Finding
	for _, pkg := range m.Pkgs {
		findings = append(findings, coverageOf(pkg, known, covered)...)
	}
	for _, f := range raw {
		if lines := covered[f.Pos.Filename]; lines != nil && lines[f.Pos.Line][f.Check] {
			continue
		}
		findings = append(findings, f)
	}
	Sort(findings)
	return findings, nil
}

// Sort orders findings by filename, line, then check name, so reports are
// deterministic regardless of package load order.
func Sort(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Check < b.Check
	})
}
