package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifestMatchesCode: BENCHMARK.json names exactly the workloads and
// metrics the program defines, with the same units, directions and bounds.
func TestManifestMatchesCode(t *testing.T) {
	m := loadManifest(t)
	defs := workloads()
	if len(m.Workloads) != len(defs) {
		t.Fatalf("manifest names %d workloads, the program defines %d", len(m.Workloads), len(defs))
	}
	for i, w := range defs {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %q (%q), program %q (%q)", i, m.Workloads[i].Name, m.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(m.EndToEnd, endToEnd) {
		t.Errorf("end_to_end: manifest %+v, program %+v", m.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayer) {
		t.Errorf("per_layer differs: manifest has %d metrics, program %d", len(m.PerLayer), len(perLayer))
	}
	seen := make(map[string]bool)
	for _, group := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range group {
			if !nameRE.MatchString(d.Name) {
				t.Errorf("metric name %q is not made of letters, digits, '_', '.' and '-'", d.Name)
			}
			if seen[d.Name] {
				t.Errorf("metric name %q is used twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
	for _, w := range defs {
		if !nameRE.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q is malformed or reused", w.name)
		}
		seen[w.name] = true
	}
}

// TestSummarizeMatchesPython pins the quartile method to Python's
// statistics.quantiles(values, n=4), which the driver computes spreads with.
func TestSummarizeMatchesPython(t *testing.T) {
	s := summarize([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.Min != 1 || s.Max != 10 || s.N != 10 {
		t.Errorf("ten samples: %+v", s)
	}
	if s := summarize([]float64{3, 1, 2}); s.Q1 != 1 || s.Median != 2 || s.Q3 != 3 {
		t.Errorf("three samples: %+v", s)
	}
	if s := summarize([]float64{4}); s.Q1 != 4 || s.Median != 4 || s.Q3 != 4 {
		t.Errorf("one sample: %+v", s)
	}
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload at smoke scale (NP <= 4 rows, one rep, in
// process) twice, and requires: no correctness failure, every metric of the
// manifest emitted and nothing else, one sim_digest across both runs and
// across the untraced and traced paths, and spans that nest. Under -short
// only three workloads run: one sweep and the two directly driven ones.
func TestSmoke(t *testing.T) {
	opts := options{workloads: workloads(), seed: 1, reps: 1, traced: true, units: true, smoke: true}
	if testing.Short() {
		opts.workloads = []*workloadDef{findWorkload("fig7-el"), findWorkload("np64-cell"), findWorkload("service-storm")}
	}
	first, units, err := measureAll(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.traced, opts.units = false, false
	second, _, err := measureAll(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range crossChecks(first) {
		t.Error(f)
	}
	for i, r := range first {
		for _, f := range append(r.failures, second[i].failures...) {
			t.Error(f)
		}
		if r.attempted == 0 || r.failed != 0 {
			t.Errorf("%s: %d cells attempted, %d failed", r.def.name, r.attempted, r.failed)
		}
		// verify() already compared the traced run's digest with the rep's.
		if a, b := r.reps[0].Digest, second[i].reps[0].Digest; a != b {
			t.Errorf("%s: sim_digest %s on the first run, %s on the second", r.def.name, a, b)
		}

		samples := r.endToEndSamples()
		if got, want := keys(samples), names(endToEnd); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: end-to-end metrics %v, want %v", r.def.name, got, want)
		}
		for name, s := range samples {
			if len(s) == 0 || runValue(name, s) <= 0 {
				t.Errorf("%s: %s has samples %v; an end-to-end metric is never 0", r.def.name, name, s)
			}
		}
		if got, want := keys(r.perLayerValues(units)), names(perLayer); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: per-layer metrics\n got %v\nwant %v", r.def.name, got, want)
		}
		for _, perLayerMode := range []bool{false, true} {
			want := names(endToEnd)
			if perLayerMode {
				want = names(perLayer)
			}
			if got := keys(driverMetrics(r, units, perLayerMode)); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: driver line (per-layer %v) has metrics %v, want %v", r.def.name, perLayerMode, got, want)
			}
		}

		spans := r.traced.Spans
		if len(spans) != 1+6*len(r.traced.Cells) {
			t.Errorf("%s: %d spans for %d cells", r.def.name, len(spans), len(r.traced.Cells))
		}
		for j, s := range spans {
			if s.EndNs < s.StartNs {
				t.Errorf("%s: span %d (%s) ends before it starts", r.def.name, j, s.Name)
			}
			if s.Parent < 0 {
				continue
			}
			if p := spans[s.Parent]; s.Parent >= j || s.StartNs < p.StartNs || s.EndNs > p.EndNs {
				t.Errorf("%s: span %d (%s %s) does not fit inside its parent %d (%s)", r.def.name, j, s.Name, s.Cell, s.Parent, p.Name)
			}
		}
	}
}
