package mpichv_test

import (
	"testing"

	"mpichv/internal/analysis"
)

// TestInvariantLintSuite runs the invariant lint suite (internal/analysis:
// detmap, walltime, noalloc, pooldiscipline) over the whole module, so
// `go test ./...` enforces the determinism, zero-alloc and pool-lifecycle
// contracts without extra tooling — the same suite cmd/lint and the CI
// lint job run. Zero findings are required; a suppression without a
// written reason is itself a finding. The noalloc check's runtime
// counterpart is TestHotPathAllocations (alloc_test.go), which executes
// every annotated root.
//
// Skipped in -short: the stdlib-only driver type-checks the standard
// library from source, which costs a few seconds — the full (tier-1) run
// and the dedicated CI lint job still enforce it on every change.
func TestInvariantLintSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-checking skipped in -short (covered by the full run and the CI lint job)")
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
