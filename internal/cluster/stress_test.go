package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"mpichv/internal/checkpoint"
	"mpichv/internal/daemon"
	"mpichv/internal/sim"
)

// TestStressRandomFaultSchedules fuzzes the recovery machinery: random
// fault times, random victims, every causal reducer with and without the
// Event Logger, asserting that (a) the run completes, and (b) every
// delivery consumed at a given program step matches the fault-free
// execution — the strongest end-to-end statement of the protocols'
// correctness.
func TestStressRandomFaultSchedules(t *testing.T) {
	if testing.Short() {
		t.Skip("stress fuzzing is slow")
	}
	const np = 4
	baselines := map[string][]map[int64]daemon.DeliveryRecord{}

	runOne := func(reducer string, useEL bool, faults [][2]int64) []map[int64]daemon.DeliveryRecord {
		cfg := Config{
			NP: np, Stack: StackVcausal, Reducer: reducer, UseEL: useEL,
			CkptPolicy: checkpoint.PolicyRoundRobin, CkptInterval: 4 * sim.Millisecond,
			RecordDeliveries: true,
			RestartDelay:     12 * sim.Millisecond,
			AppStateBytes:    32 << 10,
		}
		c := New(cfg)
		d := c.PrepareRun(ringPrograms(np, 100, 384))
		for _, f := range faults {
			d.ScheduleFault(sim.Time(f[0]), int(f[1]))
		}
		d.Launch()
		c.RunLaunched(30 * sim.Minute).MustCompleted()
		return foldDeliveries(t, fmt.Sprintf("%s/el=%v faults %v", reducer, useEL, faults), c)
	}

	rng := rand.New(rand.NewSource(2026))
	for _, reducer := range []string{"vcausal", "manetho", "logon"} {
		for _, useEL := range []bool{true, false} {
			key := fmt.Sprintf("%s/%v", reducer, useEL)
			baselines[key] = runOne(reducer, useEL, nil)
		}
	}
	for trial := 0; trial < 8; trial++ {
		nFaults := 1 + rng.Intn(3)
		var faults [][2]int64
		at := int64(10 + rng.Intn(20))
		for f := 0; f < nFaults; f++ {
			faults = append(faults, [2]int64{at * int64(sim.Millisecond), int64(rng.Intn(np))})
			at += int64(25 + rng.Intn(30))
		}
		reducer := []string{"vcausal", "manetho", "logon"}[rng.Intn(3)]
		useEL := rng.Intn(2) == 0
		key := fmt.Sprintf("%s/%v", reducer, useEL)
		name := fmt.Sprintf("trial %d (%s, faults %v)", trial, key, faults)

		got := runOne(reducer, useEL, faults)
		compareDeliveryLogs(t, name, baselines[key], got)
		if t.Failed() {
			return
		}
	}
}

// TestStressCoordinatedRandomFaults fuzzes rollback-all with random fault
// schedules.
func TestStressCoordinatedRandomFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("stress fuzzing is slow")
	}
	const np = 4
	runOne := func(faults [][2]int64) []map[int64]daemon.DeliveryRecord {
		cfg := Config{
			NP: np, Stack: StackCoordinated,
			CkptPolicy: checkpoint.PolicyCoordinated, CkptInterval: 8 * sim.Millisecond,
			RecordDeliveries: true,
			RestartDelay:     10 * sim.Millisecond,
			AppStateBytes:    32 << 10,
		}
		c := New(cfg)
		d := c.PrepareRun(ringPrograms(np, 100, 384))
		for _, f := range faults {
			d.ScheduleFault(sim.Time(f[0]), int(f[1]))
		}
		d.Launch()
		c.RunLaunched(30 * sim.Minute).MustCompleted()
		return foldDeliveries(t, fmt.Sprintf("coordinated faults %v", faults), c)
	}
	ref := runOne(nil)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 4; trial++ {
		at := int64(12+rng.Intn(25)) * int64(sim.Millisecond)
		victim := int64(rng.Intn(np))
		got := runOne([][2]int64{{at, victim}})
		compareDeliveryLogs(t, fmt.Sprintf("coordinated trial %d", trial), ref, got)
		if t.Failed() {
			return
		}
	}
}
