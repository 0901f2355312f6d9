package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunRejectsBadInput drives the flag values the workload and cluster
// constructors refuse: each must end in exit status 2 with one
// "mpichv: …" line on stderr — no panic, no stack trace, no report.
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
