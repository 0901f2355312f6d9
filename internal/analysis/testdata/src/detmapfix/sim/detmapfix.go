// Package sim (simulation-core by its directory name) is the detmap
// fixture: each function is one map-iteration shape, good or bad.
package sim

import "sort"

// BadRange leaks map order into the output slice: finding expected.
func BadRange(m map[int]string) []string {
	var out []string
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// BadNested leaks map order from both loops: two findings expected.
func BadNested(m map[int]int) []int {
	var out []int
	for a := range m {
		for b := range m {
			out = append(out, a+b)
		}
	}
	return out
}

// GoodSorted collects the keys (guarded, with an order-insensitive count)
// and sorts before use: no finding.
func GoodSorted(m map[int]string) []string {
	keys := make([]int, 0, len(m))
	total := 0
	for k, v := range m {
		if v != "" {
			keys = append(keys, k)
			total++
		}
	}
	sort.Ints(keys)
	out := make([]string, 0, total)
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}

// GoodClear is the single-statement clearing idiom: no finding.
func GoodClear(m map[int]string) {
	for k := range m {
		delete(m, k)
	}
}

// AllowedRange demonstrates a suppressed site: no finding survives.
func AllowedRange(m map[int]int) int {
	sum := 0
	//lint:allow detmap summing ints is commutative, order cannot reach the result
	for _, v := range m {
		sum += v
	}
	return sum
}

// MissingReason carries a reasonless directive: the directive itself is a
// finding and the range stays flagged.
func MissingReason(m map[int]int) []int {
	var out []int
	//lint:allow detmap
	for k := range m {
		out = append(out, k)
	}
	return out
}
