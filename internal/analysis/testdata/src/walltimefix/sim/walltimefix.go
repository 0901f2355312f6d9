// Package sim (simulation-core by its directory name) is the walltime
// fixture: wall-clock reads and global-RNG draws are findings, seeded
// streams and duration arithmetic are not.
package sim

import (
	"math/rand"
	"time"
)

// BadWallClock reads the wall clock twice: two findings expected.
func BadWallClock() time.Duration {
	start := time.Now()
	return time.Since(start)
}

// BadGlobalRand samples the process-global generator: two findings.
func BadGlobalRand() int {
	rand.Seed(1)
	return rand.Intn(10)
}

// GoodSeededStream draws from an explicit seeded stream: no finding.
func GoodSeededStream(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(10)
}

// GoodDuration uses time only for duration arithmetic: no finding.
func GoodDuration(d time.Duration) time.Duration {
	return d * 2
}

// AllowedWallClock demonstrates a suppressed diagnostic site.
func AllowedWallClock() time.Time {
	//lint:allow walltime wall clock feeds an operator log line, never simulation state
	return time.Now()
}
