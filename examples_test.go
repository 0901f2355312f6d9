package mpichv_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestExampleDigests runs each walkthrough under examples/ with `go run`
// and requires its stdout, a deterministic report built from the internal
// packages it calls, to match its line in testdata/examples.sha256: an API
// rewrite that changes what an example does fails here.
func TestExampleDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every example; run without -short")
	}
	dirs, err := filepath.Glob("examples/*")
	if err != nil {
		t.Fatal(err)
	}
	outputs := map[string][]byte{}
	for _, dir := range dirs {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command("go", "run", "./"+dir)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("go run ./%s: %v\n%s", dir, err, stderr.String())
		}
		outputs["out/example-"+filepath.Base(dir)+".txt"] = stdout.Bytes()
	}
	checkSums(t, "testdata/examples.sha256", outputs)
}

// checkSums compares outputs (path → content) with the sha256sum-format
// file sumFile: every listed path must be produced with its digest, and
// every output must be listed. A mismatch prints the line to paste.
func checkSums(t *testing.T, sumFile string, outputs map[string][]byte) {
	t.Helper()
	data, err := os.ReadFile(sumFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		sum, path, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", sumFile, line)
		}
		want[path] = sum
	}
	for _, path := range slices.Sorted(maps.Keys(outputs)) {
		got := fmt.Sprintf("%x", sha256.Sum256(outputs[path]))
		if sum, ok := want[path]; !ok {
			t.Errorf("%s does not list %s; add:\n%s  %s", sumFile, path, got, path)
		} else if sum != got {
			t.Errorf("%s: %s moved; new line:\n%s  %s", sumFile, path, got, path)
		}
		delete(want, path)
	}
	for _, path := range slices.Sorted(maps.Keys(want)) {
		t.Errorf("%s: %s is listed but was not written", sumFile, path)
	}
}
