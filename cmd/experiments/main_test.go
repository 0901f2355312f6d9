package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// names resolves a -fig value and returns the selected experiment names.
func names(t *testing.T, figSpec string) ([]string, error) {
	t.Helper()
	exps, err := resolveFigures(figSpec)
	var out []string
	for _, e := range exps {
		out = append(out, e.Name)
	}
	return out, err
}

func TestResolveFigures(t *testing.T) {
	t.Run("all", func(t *testing.T) {
		got, err := names(t, "all")
		if err != nil {
			t.Fatal(err)
		}
		// -list prints the same names, so this is also its output.
		want := []string{"fig1", "fig6a", "fig6b", "fig7", "fig8", "fig9", "fig10",
			"ext-el", "ext-elsweep", "ext-sched", "ext-duplex", "ext-faultstorm",
			"ext-elcontribution", "ext-partition", "ext-service"}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("all = %v, want the full experiment list %v", got, want)
		}
	})

	t.Run("short and long forms", func(t *testing.T) {
		got, err := names(t, "7, fig6a ,8")
		if err != nil {
			t.Fatal(err)
		}
		want := []string{"fig7", "fig6a", "fig8"}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("resolve = %v, want %v", got, want)
		}
	})

	t.Run("extension names pass through", func(t *testing.T) {
		got, err := names(t, "ext-el")
		if err != nil || len(got) != 1 || got[0] != "ext-el" {
			t.Errorf("resolve(ext-el) = %v, %v", got, err)
		}
	})

	all, _ := names(t, "all")
	for _, family := range []string{"partition", "service"} {
		t.Run(family+" experiments registered", func(t *testing.T) {
			full, smoke := "ext-"+family, "ext-"+family+"-smoke"
			got, err := names(t, full+","+smoke)
			if err != nil {
				t.Fatal(err)
			}
			if want := []string{full, smoke}; !reflect.DeepEqual(got, want) {
				t.Errorf("resolve = %v, want %v", got, want)
			}
			if !slices.Contains(all, full) {
				t.Errorf("%s missing from -fig all", full)
			}
			if slices.Contains(all, smoke) {
				t.Errorf("smoke variant %s in -fig all", smoke)
			}
		})
	}

	t.Run("unknown figure", func(t *testing.T) {
		if _, err := resolveFigures("99"); err == nil {
			t.Error("unknown figure should error")
		}
	})

	t.Run("empty selection", func(t *testing.T) {
		if _, err := resolveFigures(" , "); err == nil {
			t.Error("empty selection should error")
		}
	})
}

func TestPrepareOutDir(t *testing.T) {
	if err := prepareOutDir(""); err != nil {
		t.Fatalf("empty dir (stdout mode) should be a no-op: %v", err)
	}

	nested := filepath.Join(t.TempDir(), "a", "b", "out")
	if err := prepareOutDir(nested); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(nested)
	if err != nil || !st.IsDir() {
		t.Fatalf("out dir not created: %v", err)
	}

	// A path blocked by an existing file must surface an error.
	blocked := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocked, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := prepareOutDir(filepath.Join(blocked, "sub")); err == nil {
		t.Error("creating a dir under a regular file should error")
	}
}

// TestRunRejectsBadInput: a bad -fig value or flag ends in exit status 2
// with one line on stderr and nothing on stdout; -list prints the names
// -fig all runs and exits 0.
func TestRunRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string
	}{
		{"-fig bogus", "unknown experiment \"figbogus\" (try -list)\n"},
		{"-fig ,", "-fig \",\" selects no experiments (try -list)\n"},
		{"-bogus", "flag provided but not defined: -bogus\n"},
	} {
		t.Run(tc.args, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(strings.Fields(tc.args), &stdout, &stderr); code != 2 {
				t.Errorf("exit status %d, want 2", code)
			}
			if stderr.String() != tc.want {
				t.Errorf("stderr = %q, want %q", stderr.String(), tc.want)
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout = %q, want nothing", stdout.String())
			}
		})
	}
	t.Run("-list", func(t *testing.T) {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-list"}, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
			t.Fatalf("exit status %d, stderr %q", code, stderr.String())
		}
		all, _ := names(t, "all")
		if want := strings.Join(all, "\n") + "\n"; stdout.String() != want {
			t.Errorf("stdout = %q, want %q", stdout.String(), want)
		}
	})
}

// TestBehaviourDigests is the behaviour check: it runs the command in
// process and requires every output to match its line in
// testdata/experiments.sha256 or testdata/smoke.sha256 (sha256sum format,
// paths as the shell recipe in the verify notes writes them). A moved
// output prints its new line, an unlisted one the line to add. The smokes
// must also be byte-identical at two worker widths and say what each
// exists to show; no result may hold a panic.
func TestBehaviourDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every table (~20 s); run without -short")
	}
	t.Run("fig-all", func(t *testing.T) {
		root := t.TempDir()
		out := filepath.Join(root, "out")
		start := time.Now()
		tables := runOK(t, "-fig", "all", "-parallel", "2", "-out", out, "-q")
		t.Logf("cmd/experiments -fig all -parallel 2: %.3f s wall", time.Since(start).Seconds())
		if err := os.WriteFile(filepath.Join(out, "tables.txt"), tables, 0o644); err != nil {
			t.Fatal(err)
		}
		outputs := readTree(t, root, "out")
		noPanics(t, outputs)
		census := map[string]int{}
		outcome := regexp.MustCompile(`"outcome": "([a-z-]+)"`)
		for path, data := range outputs {
			if strings.HasSuffix(path, ".json") {
				for _, m := range outcome.FindAllSubmatch(data, -1) {
					census[string(m[1])]++
				}
			}
		}
		var line []string
		for _, o := range slices.Sorted(maps.Keys(census)) {
			line = append(line, fmt.Sprintf("%d %s", census[o], o))
		}
		t.Logf("outcome census: %s", strings.Join(line, ", "))
		checkSums(t, "../../testdata/experiments.sha256", outputs)
	})

	t.Run("smokes", func(t *testing.T) {
		root, other := t.TempDir(), t.TempDir()
		outputs := map[string][]byte{}
		for _, s := range []struct {
			fig, dir string
			width    string // the digested width; the other is 1
			traced   bool
			greps    map[string]string // path pattern → regexp some file must match
		}{
			{"ext-elcontribution-smoke", "out-p2", "2", false, map[string]string{
				"ext-elcontribution-smoke.csv": "determinant-loss"}},
			{"ext-partition-smoke", "outp-p2", "2", true, map[string]string{
				"ext-partition-smoke.csv": "false-suspicion", "traces/*/*.jsonl": `"kind":"partition-cut"`}},
			{"ext-service-smoke", "outs-p2", "2", true, map[string]string{
				"ext-service-smoke.csv": "p99_latency_ns", "traces/*/*.jsonl": `"kind":"kill"`}},
			{"ext-np64-smoke", "outn-p8", "8", false, map[string]string{
				"ext-np64-smoke.csv": `cg\.A\.64.*completed`}},
		} {
			trees := make([]map[string][]byte, 2)
			for i, w := range []struct{ root, width string }{{root, s.width}, {other, "1"}} {
				dir := filepath.Join(w.root, s.dir)
				args := []string{"-fig", s.fig, "-parallel", w.width, "-out", dir, "-q"}
				if s.traced {
					args = append(args, "-trace", filepath.Join(dir, "traces"))
				}
				runOK(t, args...)
				trees[i] = readTree(t, w.root, s.dir)
			}
			if !maps.EqualFunc(trees[0], trees[1], bytes.Equal) {
				t.Errorf("%s: outputs differ between -parallel %s and 1", s.fig, s.width)
			}
			for pattern, re := range s.greps {
				if !anyMatch(t, trees[0], s.dir+"/"+pattern, regexp.MustCompile(re)) {
					t.Errorf("%s: no %s/%s matches %q", s.fig, s.dir, pattern, re)
				}
			}
			maps.Copy(outputs, trees[0])
		}
		noPanics(t, outputs)
		checkSums(t, "../../testdata/smoke.sha256", outputs)
	})
}

// runOK runs the command with args, failing the test on a non-zero exit
// status or any stderr output, and returns its stdout.
func runOK(t *testing.T, args ...string) []byte {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
		t.Fatalf("experiments %s: exit status %d, stderr %q", strings.Join(args, " "), code, stderr.String())
	}
	return stdout.Bytes()
}

// readTree returns every file under root/dir, keyed by its slash-separated
// path relative to root.
func readTree(t *testing.T, root, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		rel, _ := filepath.Rel(root, path)
		files[filepath.ToSlash(rel)] = data
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// anyMatch reports whether some file whose path matches pattern has a
// match of re, as `grep -q re pattern` does.
func anyMatch(t *testing.T, files map[string][]byte, pattern string, re *regexp.Regexp) bool {
	t.Helper()
	for path, data := range files {
		if ok, err := filepath.Match(pattern, path); err != nil {
			t.Fatal(err)
		} else if ok && re.Match(data) {
			return true
		}
	}
	return false
}

// noPanics requires that no structured result records a panic: every
// protocol path ends a cell in a typed outcome.
func noPanics(t *testing.T, files map[string][]byte) {
	t.Helper()
	for path, data := range files {
		if strings.HasSuffix(path, ".json") && bytes.Contains(data, []byte(`"error": "panic:`)) {
			t.Errorf("%s: a cell panicked", path)
		}
	}
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
