package obs

import (
	"bytes"
	"encoding/json"
	"slices"
	"sort"
	"testing"

	"mpichv/internal/sim"
)

// TestNilRecorderIsFree pins the disabled-layer contract: Record and the
// accessors on a nil *Recorder allocate nothing.
func TestNilRecorderIsFree(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(5*sim.Millisecond, KindKill, 3, 0, "")
		if r.Enabled() || r.Len() != 0 || r.Events() != nil {
			t.Fatal("nil recorder reported state")
		}
	})
	if allocs != 0 {
		t.Fatalf("nil Recorder.Record allocated %.1f/op, want 0", allocs)
	}
}

func TestKindNamesRoundTrip(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); k < kindCount; k++ {
		name := k.String()
		if name == "" || name == "unknown" {
			t.Fatalf("kind %d has no wire name", k)
		}
		if seen[name] {
			t.Fatalf("duplicate wire name %q", name)
		}
		seen[name] = true
		back, ok := KindFromName(name)
		if !ok || back != k {
			t.Fatalf("KindFromName(%q) = %v, %v; want %v, true", name, back, ok, k)
		}
	}
	if _, ok := KindFromName("no-such-kind"); ok {
		t.Fatal("KindFromName accepted an unknown name")
	}
}

func TestRecorderOrder(t *testing.T) {
	r := NewRecorder()
	r.Record(1, KindKill, 0, 0, "")
	r.Record(2, KindRestart, 0, 0, "")
	r.Record(3, KindRecovered, 0, 0, "")
	if !r.Enabled() || r.Len() != 3 {
		t.Fatalf("recorder state: enabled=%v len=%d", r.Enabled(), r.Len())
	}
	evs := r.Events()
	for i, want := range []Kind{KindKill, KindRestart, KindRecovered} {
		if evs[i].Kind != want {
			t.Fatalf("event %d kind = %v, want %v", i, evs[i].Kind, want)
		}
	}
}

// TestJSONL checks each line is a valid JSON object with the stable field
// set, and that two renderings of the same timeline are byte-identical.
func TestJSONL(t *testing.T) {
	events := []Event{
		{T: 10 * sim.Millisecond, Kind: KindKill, Rank: 2},
		{T: 12 * sim.Millisecond, Kind: KindPartitionCut, Rank: -1, Arg: 0, Note: "0-3|4-7@12ms+30ms"},
		{T: 15 * sim.Millisecond, Kind: KindGaugeLiveRanks, Rank: -1, Arg: 7},
	}
	out := JSONL(events)
	if !bytes.Equal(out, JSONL(events)) {
		t.Fatal("JSONL is not deterministic")
	}
	lines := bytes.Split(bytes.TrimRight(out, "\n"), []byte("\n"))
	if len(lines) != len(events) {
		t.Fatalf("got %d lines, want %d", len(lines), len(events))
	}
	for i, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("line %d is not JSON: %v", i, err)
		}
		kind, _ := rec["kind"].(string)
		if k, ok := KindFromName(kind); !ok || k != events[i].Kind {
			t.Fatalf("line %d kind %q does not round-trip to %v", i, kind, events[i].Kind)
		}
		if int64(rec["t_ns"].(float64)) != int64(events[i].T) {
			t.Fatalf("line %d t_ns = %v, want %d", i, rec["t_ns"], events[i].T)
		}
	}
}

// TestChromeTrace feeds a timeline with an interrupted recovery, an
// unhealed partition and gauges, and checks the output is one valid JSON
// document whose slices are balanced (every ph:"X" has ts+dur <= end).
func TestChromeTrace(t *testing.T) {
	const np = 4
	end := 100 * sim.Millisecond
	events := []Event{
		{T: 10 * sim.Millisecond, Kind: KindKill, Rank: 1},
		{T: 11 * sim.Millisecond, Kind: KindRestart, Rank: 1},
		{T: 12 * sim.Millisecond, Kind: KindRecoveryBegin, Rank: 1},
		{T: 12 * sim.Millisecond, Kind: KindRestoreBegin, Rank: 1},
		{T: 14 * sim.Millisecond, Kind: KindRestoreEnd, Rank: 1},
		{T: 14 * sim.Millisecond, Kind: KindCollectBegin, Rank: 1},
		// Second kill interrupts the recovery mid-collection.
		{T: 16 * sim.Millisecond, Kind: KindKill, Rank: 1},
		{T: 17 * sim.Millisecond, Kind: KindRecoveryBegin, Rank: 1},
		{T: 20 * sim.Millisecond, Kind: KindRecoveryEnd, Rank: 1},
		{T: 21 * sim.Millisecond, Kind: KindRecovered, Rank: 1},
		// Partition cut that never heals: closed at end.
		{T: 30 * sim.Millisecond, Kind: KindPartitionCut, Rank: -1, Arg: 0, Note: "p"},
		{T: 40 * sim.Millisecond, Kind: KindCkptWave, Rank: -1, Arg: 1},
		{T: 40 * sim.Millisecond, Kind: KindCkptBegin, Rank: 2},
		{T: 44 * sim.Millisecond, Kind: KindCkptEnd, Rank: 2, Arg: 1 << 20},
		{T: 50 * sim.Millisecond, Kind: KindGaugeLiveRanks, Rank: -1, Arg: 4},
		{T: 60 * sim.Millisecond, Kind: KindOutage, Rank: -1, Arg: int64(5 * sim.Millisecond), Note: "event-logger"},
	}
	out := ChromeTrace(events, np, end)
	if !bytes.Equal(out, ChromeTrace(events, np, end)) {
		t.Fatal("ChromeTrace is not deterministic")
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	counts := map[string]int{}
	for _, ev := range doc.TraceEvents {
		counts[ev.Name+"/"+ev.Ph]++
		if ev.Ph == "X" {
			if ev.Dur < 0 {
				t.Fatalf("slice %q has negative dur", ev.Name)
			}
			if ev.Ts+ev.Dur > usec(end)+1e-9 {
				t.Fatalf("slice %q ends at %.3fus, past end %.3fus", ev.Name, ev.Ts+ev.Dur, usec(end))
			}
		}
	}
	for name, want := range map[string]int{
		"down/X":       1, // the re-kill lands inside the still-open window
		"restore/X":    1,
		"collect/X":    1, // force-closed by the second kill
		"recovery/X":   2, // first force-closed, second closed by RecoveryEnd
		"checkpoint/X": 1,
		"partition/X":  1, // closed at end
		"kill/i":       2,
		"ckpt-wave/i":  1,
	} {
		if counts[name] != want {
			t.Fatalf("trace has %d %s events, want %d (counts: %v)", counts[name], name, want, counts)
		}
	}
	if counts["outage:event-logger/X"] != 1 {
		t.Fatalf("missing outage slice (counts: %v)", counts)
	}
	if counts["gauge-live-ranks/C"] != 1 {
		t.Fatalf("missing gauge counter (counts: %v)", counts)
	}
}

func TestComputeMetrics(t *testing.T) {
	const ms = sim.Millisecond
	const np = 4
	end := 100 * ms
	for _, tc := range []struct {
		name   string
		events []Event
		want   Metrics
	}{
		{
			name: "single repair",
			events: []Event{
				{T: 10 * ms, Kind: KindKill, Rank: 0},
				{T: 30 * ms, Kind: KindRecovered, Rank: 0},
			},
			want: Metrics{Repairs: 1, MTTR: 20 * ms, Downtime: 20 * ms},
		},
		{
			name: "restart opens a rollback peer's window",
			events: []Event{
				{T: 10 * ms, Kind: KindRestart, Rank: 1},
				{T: 20 * ms, Kind: KindRecovered, Rank: 1},
			},
			want: Metrics{Repairs: 1, MTTR: 10 * ms, Downtime: 10 * ms},
		},
		{
			name: "kill then restart is one window",
			events: []Event{
				{T: 10 * ms, Kind: KindKill, Rank: 0},
				{T: 15 * ms, Kind: KindRestart, Rank: 0},
				{T: 40 * ms, Kind: KindRecovered, Rank: 0},
			},
			want: Metrics{Repairs: 1, MTTR: 30 * ms, Downtime: 30 * ms},
		},
		{
			name: "suspected rank finishing is downtime but not a repair",
			events: []Event{
				{T: 10 * ms, Kind: KindSuspect, Rank: 2},
				{T: 50 * ms, Kind: KindFinished, Rank: 2},
			},
			want: Metrics{Repairs: 0, MTTR: 0, Downtime: 40 * ms},
		},
		{
			name: "open window closes at end",
			events: []Event{
				{T: 90 * ms, Kind: KindKill, Rank: 3},
			},
			want: Metrics{Repairs: 0, MTTR: 0, Downtime: 10 * ms},
		},
		{
			name: "two repairs average",
			events: []Event{
				{T: 10 * ms, Kind: KindKill, Rank: 0},
				{T: 20 * ms, Kind: KindRecovered, Rank: 0},
				{T: 30 * ms, Kind: KindKill, Rank: 1},
				{T: 60 * ms, Kind: KindRecovered, Rank: 1},
			},
			want: Metrics{Repairs: 2, MTTR: 20 * ms, Downtime: 40 * ms},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := ComputeMetrics(tc.events, np, end)
			if m.Repairs != tc.want.Repairs || m.MTTR != tc.want.MTTR || m.Downtime != tc.want.Downtime {
				t.Fatalf("got %+v, want %+v", m, tc.want)
			}
			wantAvail := 1 - float64(tc.want.Downtime)/(float64(np)*float64(end))
			if m.Availability != wantAvail {
				t.Fatalf("availability = %v, want %v", m.Availability, wantAvail)
			}
		})
	}
}

func TestComputeMetricsEmptyRun(t *testing.T) {
	m := ComputeMetrics(nil, 4, 0)
	if m.Availability != 1 || m.Downtime != 0 || m.Repairs != 0 {
		t.Fatalf("zero-length run: %+v", m)
	}
}

// TestSamplerTicks runs a sampler against a kernel that has activity for
// a while, checking samples land on the interval and stop when the event
// queue drains: the run ends at its last real event, not at a tick.
func TestSamplerTicks(t *testing.T) {
	k := sim.NewKernel(1)
	rec := NewRecorder()
	v := int64(0)
	s := NewSampler(k, rec, []Gauge{
		{Kind: KindGaugeLiveRanks, Fn: func() int64 { v++; return v }},
	})
	// Background activity keeps the queue non-empty until 3.5 intervals.
	step := SampleInterval / 10
	var work func()
	work = func() {
		if k.Now() < 35*step {
			k.After(step, work)
		}
	}
	k.At(0, work)
	s.Start()
	if end := k.RunUntil(sim.Second); end != 35*step {
		t.Fatalf("run ended at %v, want the last real event at %v", end, 35*step)
	}
	var ticks []sim.Time
	for _, ev := range rec.Events() {
		if ev.Kind != KindGaugeLiveRanks {
			t.Fatalf("unexpected event kind %v", ev.Kind)
		}
		ticks = append(ticks, ev.T)
	}
	// The fourth-interval tick never runs: only it was left once the work
	// ended.
	want := []sim.Time{0, SampleInterval, 2 * SampleInterval, 3 * SampleInterval}
	if !slices.Equal(ticks, want) {
		t.Fatalf("samples at %v, want %v", ticks, want)
	}
}

// TestSamplerDisabled checks a nil recorder or an empty gauge set never
// schedules anything.
func TestSamplerDisabled(t *testing.T) {
	k := sim.NewKernel(1)
	NewSampler(k, nil, []Gauge{{Kind: KindGaugeLiveRanks, Fn: func() int64 { return 0 }}}).Start()
	NewSampler(k, NewRecorder(), nil).Start()
	if k.QueueLen() != 0 {
		t.Fatalf("disabled sampler scheduled %d events", k.QueueLen())
	}
}

// TestChromeTraceCloseOutOrder pins the end-of-run close-out pass for
// still-open fabric windows. Partitions and degrades live in maps keyed
// by plan component, and a run can end with many of them still open; the
// close-out must visit them in ascending component order (collect the
// keys, sort, then close) so the rendered trace is byte-identical no
// matter how the map iterates. Sixteen open spans per map make an
// unsorted iteration essentially certain to reorder between renders.
func TestChromeTraceCloseOutOrder(t *testing.T) {
	const np, spans = 2, 16
	end := 10 * sim.Millisecond
	var events []Event
	for i := 0; i < spans; i++ {
		events = append(events,
			Event{T: sim.Time(i) * sim.Microsecond, Kind: KindPartitionCut, Rank: -1, Arg: int64(i), Note: "p"},
			Event{T: sim.Time(i) * sim.Microsecond, Kind: KindDegrade, Rank: -1, Arg: int64(i), Note: "d"},
		)
	}
	out := ChromeTrace(events, np, end)
	for i := 0; i < 8; i++ {
		if !bytes.Equal(out, ChromeTrace(events, np, end)) {
			t.Fatal("ChromeTrace output varies across renders with open fabric spans")
		}
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	closeouts := map[string][]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && (ev.Name == "partition" || ev.Name == "degraded") {
			closeouts[ev.Name] = append(closeouts[ev.Name], ev.Tid)
		}
	}
	for _, name := range []string{"partition", "degraded"} {
		tids := closeouts[name]
		if len(tids) != spans {
			t.Fatalf("%s: %d close-out slices, want %d", name, len(tids), spans)
		}
		if !sort.IntsAreSorted(tids) {
			t.Fatalf("%s close-out slices not in ascending component order: %v", name, tids)
		}
	}
}
