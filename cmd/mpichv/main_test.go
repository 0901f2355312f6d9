package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestRunRejectsBadInput drives an unknown flag, a malformed value and the
// flag values the workload and cluster constructors refuse: each must end
// in exit status 2 with one line on stderr — no panic, no stack trace, no
// report.
func TestRunRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string
	}{
		{"-bench zz", "mpichv: workload: unknown benchmark zz\n"},
		{"-stack nope", "mpichv: cluster: unknown stack \"nope\"\n"},
		{"-reducer nope", "mpichv: causal: unknown reducer nope\n"},
		{"-bench bt -np 5", "mpichv: workload: bt requires a square process count, got 5\n"},
		{"-bench cg -class C", "mpichv: workload: unknown class \"C\" (want A or B)\n"},
		{"-bogus", "flag provided but not defined: -bogus\n"},
		{"-np x", "invalid value \"x\" for flag -np: parse error\n"},
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
}

// TestRunReportsOneJob runs one small job, plain and with both profile
// flags: the report is the same, and each profile is a written pprof file
// (gzip-compressed protobuf).
func TestRunReportsOneJob(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pb"), filepath.Join(dir, "mem.pb")
	for _, tc := range []struct {
		name     string
		extra    []string
		profiles []string
	}{
		{"plain", nil, nil},
		{"profiled", []string{"-cpuprofile", cpu, "-memprofile", mem}, []string{cpu, mem}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := append(strings.Fields("-bench cg -class A -np 4 -stack vcausal -reducer manetho -el"), tc.extra...)
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit status %d, stderr %q", code, stderr.String())
			}
			for _, want := range []string{
				"cg on 4 processes, stack=vcausal/manetho el=true",
				"app traffic    : 2400 messages",
				"events         : 2400 created, 2400 logged to EL",
			} {
				if !strings.Contains(stdout.String(), want) {
					t.Errorf("report lacks %q:\n%s", want, stdout.String())
				}
			}
			if stderr.Len() != 0 {
				t.Errorf("stderr = %q, want nothing", stderr.String())
			}
			for _, path := range tc.profiles {
				if data, err := os.ReadFile(path); err != nil || !bytes.HasPrefix(data, []byte{0x1f, 0x8b}) {
					t.Errorf("%s: not a written pprof profile (err %v, %d bytes)", path, err, len(data))
				}
			}
		})
	}
}

// TestNP256Digests runs one CG cell with the Event Logger at NP 256 per
// reducer, the width where every clock vector being an np-word array costs
// the most, and requires each report, without its host wall-clock text, to
// match its line in testdata/mpichv-np256.sha256.
func TestNP256Digests(t *testing.T) {
	if testing.Short() {
		t.Skip("three NP-256 runs (~5 s); run without -short")
	}
	wall, wallLine := regexp.MustCompile(`  \(wall [^)]*\)`), regexp.MustCompile(`.*\(wall .*`)
	outputs := map[string][]byte{}
	for _, r := range []string{"vcausal", "manetho", "logon"} {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields("-bench cg -np 256 -el -reducer "+r), &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit status %d, stderr %q", r, code, stderr.String())
		}
		t.Logf("NP 256 %s: %s", r, wallLine.FindString(stdout.String()))
		outputs["out/np256-"+r+".txt"] = wall.ReplaceAll(stdout.Bytes(), nil)
	}
	checkSums(t, "../../testdata/mpichv-np256.sha256", outputs)
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
