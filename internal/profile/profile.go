// Package profile writes the host profiles behind the commands'
// -cpuprofile and -memprofile flags, for `go tool pprof`.
package profile

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins a CPU profile into cpuFile and returns the function that
// ends it and writes the heap profile into memFile. Either may be empty.
func Start(cpuFile, memFile string) (stop func() error, err error) {
	var cpu *os.File
	if cpuFile != "" {
		if cpu, err = os.Create(cpuFile); err != nil {
			return nil, fmt.Errorf("-cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("-cpuprofile: %v", err)
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return fmt.Errorf("-cpuprofile: %v", err)
			}
		}
		if memFile == "" {
			return nil
		}
		runtime.GC() // so that in-use figures are what the process still holds
		var heap bytes.Buffer
		pprof.WriteHeapProfile(&heap) // writes to a bytes.Buffer cannot fail
		if err := os.WriteFile(memFile, heap.Bytes(), 0o644); err != nil {
			return fmt.Errorf("-memprofile: %v", err)
		}
		return nil
	}, nil
}
