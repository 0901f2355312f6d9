package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// A measurement never shares a process with another one: every finished
// cell leaves its rank goroutines parked and its heap pinned, so a second
// rep in the same process starts from the first one's garbage and runs
// slower. The parent therefore runs one child of itself at a time, one per
// rep, one for the set-up passes, one for the unit costs.

// childReq names what a child measures.
type childReq struct {
	Role     string // "rep", "traced", "setup" or "units"
	Workload string
	Seed     int64
	// Smoke selects the smoke test's scale: trimmed grids, short set-up and
	// unit-cost loops, and the request run inside the calling process.
	Smoke bool
}

// repOut is one timed execution of a workload plus the host's view of it.
type repOut struct {
	runOut
	Digest string `json:"digest"`
	// ComputeVirtualMs estimates the virtual compute time summed over cells
	// and ranks (see virtualComputeMs); the cost model multiplies it by the
	// poll cost.
	ComputeVirtualMs float64 `json:"compute_virtual_ms"`
	Host             struct {
		UserS          float64 `json:"user_s"`
		SysS           float64 `json:"sys_s"`
		MaxRSSMB       float64 `json:"max_rss_mb"`
		Mallocs        uint64  `json:"mallocs"`
		AllocMB        float64 `json:"alloc_mb"`
		GCCycles       uint32  `json:"gc_cycles"`
		GCPauseMs      float64 `json:"gc_pause_ms"`
		GoroutinesLeft int     `json:"goroutines_left"`
		HeapRetainedMB float64 `json:"heap_retained_mb"`
	} `json:"host"`
}

const mb = 1 << 20

// runRep executes the workload once in this process and reads the host
// counters around the timed section.
func runRep(w *workloadDef, req childReq) (*repOut, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out := &repOut{runOut: runWorkload(w, req.Seed, req.Smoke, req.Role == "traced")}
	out.Host.GoroutinesLeft = runtime.NumGoroutine()
	runtime.ReadMemStats(&after)

	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	out.Host.UserS = time.Duration(ru.Utime.Nano()).Seconds()
	out.Host.SysS = time.Duration(ru.Stime.Nano()).Seconds()
	out.Host.MaxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KB
	out.Host.Mallocs = after.Mallocs - before.Mallocs
	out.Host.AllocMB = float64(after.TotalAlloc-before.TotalAlloc) / mb
	out.Host.GCCycles = after.NumGC - before.NumGC
	out.Host.GCPauseMs = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6

	// Every cluster is unreachable from here on; what two collections cannot
	// free is pinned by the goroutines the cells left parked.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	out.Host.HeapRetainedMB = float64(after.HeapInuse) / mb

	out.Digest = simDigest(out.Cells)
	out.ComputeVirtualMs = virtualComputeMs(w, req.Seed, req.Smoke)
	return out, nil
}

// runSetup loops set-up passes for a fixed time and reports the mean pass in
// seconds. The abandoned deployments pile up on the heap, so later passes pay more
// garbage collection than earlier ones; every set-up child therefore
// measures the same stretch, the first setupTime of a fresh process.
func runSetup(w *workloadDef, req childReq) float64 {
	setupTime := 100 * time.Millisecond
	if req.Smoke {
		setupTime = 5 * time.Millisecond
	}
	setupPass(w, req.Seed, req.Smoke) // warm-up: lazy globals, packet pools
	start, n := time.Now(), 0
	for time.Since(start) < setupTime {
		setupPass(w, req.Seed, req.Smoke)
		n++
	}
	return time.Since(start).Seconds() / float64(n)
}

// runChild dispatches a request inside the current process.
func runChild(req childReq) (any, error) {
	if req.Role == "units" {
		return runUnits(req.Smoke), nil
	}
	w := findWorkload(req.Workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", req.Workload)
	}
	switch req.Role {
	case "rep", "traced":
		return runRep(w, req)
	case "setup":
		return runSetup(w, req), nil
	}
	return nil, fmt.Errorf("unknown child role %q", req.Role)
}

// childMain is the child side: run the request, print one JSON document.
func childMain(req childReq) int {
	out, err := runChild(req)
	if err == nil {
		err = json.NewEncoder(os.Stdout).Encode(out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 1
	}
	return 0
}

// childTimeout bounds one child; the slowest (a traced fig7-noel pass on one
// goroutine) takes under 15 s on the reference sandbox.
const childTimeout = 150 * time.Second

// spawn runs the request in a fresh child of this executable, waits for it
// to end, and decodes its answer into out. A smoke request runs the same
// code inside this process.
func spawn(req childReq, out any) error {
	if req.Smoke {
		res, err := runChild(req)
		if err != nil {
			return err
		}
		data, err := json.Marshal(res)
		if err != nil {
			return err
		}
		return json.Unmarshal(data, out)
	}
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locating the benchmark binary: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe,
		"-child", req.Role, "-workload", req.Workload, "-seed", strconv.FormatInt(req.Seed, 10))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("child %s %s: %w", req.Role, req.Workload, err)
	}
	if err := json.Unmarshal(stdout.Bytes(), out); err != nil {
		return fmt.Errorf("child %s %s: decoding its result: %w", req.Role, req.Workload, err)
	}
	return nil
}
