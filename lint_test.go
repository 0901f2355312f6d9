package mpichv_test

import (
	"testing"

	"mpichv/internal/analysis"
)

// TestInvariantLintSuite runs the invariant lint suite (internal/analysis:
// detmap, walltime, noalloc, pooldiscipline) over the whole module, so
// `go test ./...` enforces the determinism, zero-alloc and pool-lifecycle
// contracts without extra tooling: it is the suite's one driver. Zero
// findings are required; a suppression without a written reason is
// itself a finding. On failure each finding is one file:line: [check]
// message line of the test log. The noalloc check's runtime
// counterpart is TestHotPathAllocations (alloc_test.go), which executes
// every annotated root.
//
// Skipped in -short: the stdlib-only driver type-checks the standard
// library from source, which costs a few seconds — the full (tier-1) run
// and the CI test job's `go test ./...` enforce it on every change.
func TestInvariantLintSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-checking skipped in -short (covered by the full run)")
	}
	m, err := analysis.LoadModule(".")
	if err != nil {
		t.Fatalf("lint driver: %v", err)
	}
	findings, err := analysis.Run(m, nil)
	if err != nil {
		t.Fatalf("lint driver: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
