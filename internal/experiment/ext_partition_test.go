package experiment

import (
	"reflect"
	"slices"
	"testing"

	"mpichv/internal/harness"
	"mpichv/internal/sim"
	"mpichv/internal/workload"
)

// TestPerNPResolvesEachCell expands the partition grid over NP 4 and 9
// without running it: every partition cell isolates rank 0 against its
// own NP - 1 ranks, the kill cell keeps its plan, and each variant's
// restart delay reaches its cells.
func TestPerNPResolvesEachCell(t *testing.T) {
	delayed := func(np int) []harness.Variant {
		vs := extPartitionScenarios(np)
		for i := range vs {
			vs[i].RestartDelay = sim.Time(i+1) * sim.Millisecond
		}
		return vs
	}
	bt := func(np int) harness.Workload {
		spec := workload.Spec{Bench: "bt", Class: "A", NP: np}
		return harness.Workload{Key: spec.String(), Spec: spec}
	}
	f := extPartitionSweep("per-np", elStacks[:2], delayed, bt(4), bt(9))
	kill := extPartitionScenarios(4)[0]
	partitioned := make(map[int]int) // NP -> partition cells checked
	for _, c := range f.Cells() {
		v := f.Variants[slices.IndexFunc(f.Variants, func(v harness.Variant) bool { return v.Key == c.Variant.Key })]
		if c.Config.RestartDelay != v.RestartDelay {
			t.Errorf("%s: restart delay %v, want the variant's %v", c.ID, c.Config.RestartDelay, v.RestartDelay)
		}
		if c.Variant.Key == kill.Key && !reflect.DeepEqual(c.Config.Faults, kill.Faults) {
			t.Errorf("%s: plan %+v, want the kill plan %+v", c.ID, c.Config.Faults, kill.Faults)
		}
		rest := make([]int, 0, c.Config.NP-1)
		for r := 1; r < c.Config.NP; r++ {
			rest = append(rest, r)
		}
		for _, p := range c.Config.Faults.Partitions {
			if want := [][]int{{0}, rest}; !reflect.DeepEqual(p.Groups, want) {
				t.Errorf("%s (NP %d): groups %v, want %v", c.ID, c.Config.NP, p.Groups, want)
			}
			partitioned[c.Config.NP]++
		}
	}
	if partitioned[4] == 0 || partitioned[9] == 0 {
		t.Fatalf("partition cells checked per NP: %v, want some at NP 4 and 9", partitioned)
	}
}
