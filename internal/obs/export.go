package obs

import (
	"bytes"
	"encoding/json"

	"mpichv/internal/sim"
)

// jsonlRecord is the wire form of one JSONL timeline row.
type jsonlRecord struct {
	T    int64  `json:"t_ns"`
	Kind string `json:"kind"`
	Rank int    `json:"rank"`
	Arg  int64  `json:"arg,omitempty"`
	Note string `json:"note,omitempty"`
}

// JSONL renders the timeline as one JSON object per line, in emission
// order. The encoding is stable (fixed field order, no maps), so two
// identical timelines produce byte-identical output.
func JSONL(events []Event) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, ev := range events {
		rec := jsonlRecord{T: int64(ev.T), Kind: ev.Kind.String(), Rank: ev.Rank, Arg: ev.Arg, Note: ev.Note}
		if err := enc.Encode(rec); err != nil {
			panic("obs: jsonl encode: " + err.Error())
		}
	}
	return buf.Bytes()
}

// Chrome trace-event process IDs: Perfetto groups tracks by pid, so each
// aspect of the run gets its own group.
const (
	pidLifecycle = 1 // per-rank down windows and fault instants
	pidPhases    = 2 // per-rank recovery phases and checkpoint slices
	pidFabric    = 3 // partition / degrade windows, heals, waves
	pidServices  = 4 // stable-service outages
	pidGauges    = 5 // sampled counters
)

// chromeEvent is one entry of the Chrome trace-event JSON array. Ts and
// Dur are microseconds (the format's unit); the timeline's nanosecond
// stamps keep three fractional digits.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

func usec(t sim.Time) float64 { return float64(t) / 1e3 }

// span tracks one open window while pairing timeline events into "X"
// complete slices.
type span struct {
	start sim.Time
	open  bool
}

// window names the Chrome slice drawn between an opening and a closing
// timeline kind.
type window struct {
	name        string
	open, close Kind
}

// phaseWindows are each rank's recovery-phase and checkpoint slices, in
// the order a kill, a completion or the end of the run force-closes them.
var phaseWindows = [...]window{
	{"restore", KindRestoreBegin, KindRestoreEnd},
	{"collect", KindCollectBegin, KindCollectEnd},
	{"replay", KindReplayBegin, KindRecoveryEnd},
	{"recovery", KindRecoveryBegin, KindRecoveryEnd},
	{"checkpoint", KindCkptBegin, KindCkptEnd},
}

// fabricWindows are the link-fabric slices, one track per plan component
// (the event's Arg).
var fabricWindows = [...]window{
	{"partition", KindPartitionCut, KindPartitionHeal},
	{"degraded", KindDegrade, KindDegradeClear},
}

// eventArgs are the arguments an event carries onto its instant or onto
// the slice it closes.
func eventArgs(ev Event) map[string]any {
	switch ev.Kind {
	case KindCkptEnd:
		return map[string]any{"image_bytes": ev.Arg}
	case KindDetLoss:
		return map[string]any{"lost_clocks": ev.Arg}
	case KindCkptWave:
		return map[string]any{"epoch": ev.Arg}
	}
	return nil
}

// chromeBuilder accumulates trace events.
type chromeBuilder struct {
	out []chromeEvent
}

func (b *chromeBuilder) slice(name string, pid, tid int, from, to sim.Time, args map[string]any) {
	if to < from {
		to = from
	}
	b.out = append(b.out, chromeEvent{
		Name: name, Ph: "X", Ts: usec(from), Dur: usec(to - from),
		Pid: pid, Tid: tid, Args: args,
	})
}

func (b *chromeBuilder) instant(name string, pid, tid int, t sim.Time, args map[string]any) {
	b.out = append(b.out, chromeEvent{Name: name, Ph: "i", Ts: usec(t), Pid: pid, Tid: tid, S: "t", Args: args})
}

func (b *chromeBuilder) counter(name string, t sim.Time, v int64) {
	b.out = append(b.out, chromeEvent{
		Name: name, Ph: "C", Ts: usec(t), Pid: pidGauges, Tid: 0,
		Args: map[string]any{"value": v},
	})
}

func (b *chromeBuilder) meta(pid, tid int, kind, name string) {
	b.out = append(b.out, chromeEvent{Name: kind, Ph: "M", Pid: pid, Tid: tid, Args: map[string]any{"name": name}})
}

// close ends an open span as a slice and clears it.
func (b *chromeBuilder) close(s *span, name string, pid, tid int, to sim.Time, args map[string]any) {
	if !s.open {
		return
	}
	b.slice(name, pid, tid, s.start, to, args)
	s.open = false
}

// track applies ev to one track's windows of table: an opening kind
// (re)starts its window, a closing kind ends it as a slice.
func (b *chromeBuilder) track(table []window, spans []span, pid, tid int, ev Event) {
	for i, w := range table {
		switch ev.Kind {
		case w.open:
			spans[i] = span{start: ev.T, open: true}
		case w.close:
			b.close(&spans[i], w.name, pid, tid, ev.T, eventArgs(ev))
		}
	}
}

// ChromeTrace renders the timeline in Chrome trace-event JSON (viewable
// in Perfetto / chrome://tracing): one lifecycle track and one
// recovery-phase track per rank, fabric windows paired by plan component,
// service outages, and sampled gauges as counter tracks. The down slices
// are the windows of a Downtime fed the same timeline, so the trace and
// the availability figures agree. A kill or a completion force-closes the
// rank's phase windows, so the output never holds unbalanced slices, and
// windows still open when the timeline ends are closed at end.
func ChromeTrace(events []Event, np int, end sim.Time) []byte {
	b := &chromeBuilder{}
	b.meta(pidLifecycle, 0, "process_name", "rank lifecycle")
	b.meta(pidPhases, 0, "process_name", "recovery phases")
	b.meta(pidFabric, 0, "process_name", "link fabric")
	b.meta(pidServices, 0, "process_name", "stable services")
	b.meta(pidGauges, 0, "process_name", "gauges")

	down := NewDowntime(make([]sim.Time, np))
	phases := make([][len(phaseWindows)]span, np)
	var fabric [][len(fabricWindows)]span // by plan component
	interrupt := func(rank int, t sim.Time) {
		for i, w := range phaseWindows {
			b.close(&phases[rank][i], w.name, pidPhases, rank, t, nil)
		}
	}

	for _, ev := range events {
		t, rank := ev.T, ev.Rank
		inRange := rank >= 0 && rank < np
		if from := down.Observe(ev); from >= 0 {
			b.slice("down", pidLifecycle, rank, from, t, nil)
		}
		switch ev.Kind {
		case KindKill, KindSuspect, KindFinished:
			if inRange {
				b.instant(ev.Kind.String(), pidLifecycle, rank, t, nil)
				interrupt(rank, t)
			}
		case KindFenced, KindDetLoss, KindELQuery:
			if rank >= 0 {
				b.instant(ev.Kind.String(), pidLifecycle, rank, t, eventArgs(ev))
			}
		case KindCkptWave:
			b.instant(ev.Kind.String(), pidFabric, 0, t, eventArgs(ev))
		case KindPartitionCut, KindPartitionHeal, KindDegrade, KindDegradeClear:
			if c := int(ev.Arg); c >= 0 {
				for len(fabric) <= c {
					fabric = append(fabric, [len(fabricWindows)]span{})
				}
				b.track(fabricWindows[:], fabric[c][:], pidFabric, 1+c, ev)
			}
		case KindOutage:
			b.slice("outage:"+ev.Note, pidServices, 0, t, t+sim.Time(ev.Arg), nil)
		case KindELBacklog:
			b.counter("el-backlog-highwater", t, ev.Arg)
		case KindGaugeHeldDets, KindGaugeSenderLogBytes, KindGaugeELBacklog, KindGaugeLiveRanks:
			b.counter(ev.Kind.String(), t, ev.Arg)
		default:
			if inRange {
				b.track(phaseWindows[:], phases[rank][:], pidPhases, rank, ev)
			}
		}
	}

	// Close whatever the end of the run left open.
	for rank, from := range down.since {
		interrupt(rank, end)
		if from >= 0 {
			b.slice("down", pidLifecycle, rank, from, end, nil)
		}
	}
	for i, w := range fabricWindows {
		for c := range fabric {
			b.close(&fabric[c][i], w.name, pidFabric, 1+c, end, nil)
		}
	}

	for rank := 0; rank < np; rank++ {
		b.meta(pidLifecycle, rank, "thread_name", "rank")
		b.meta(pidPhases, rank, "thread_name", "rank")
	}

	var buf bytes.Buffer
	buf.WriteString("{\"traceEvents\":[")
	for i, ev := range b.out {
		if i > 0 {
			buf.WriteByte(',')
		}
		raw, err := json.Marshal(ev)
		if err != nil {
			panic("obs: chrome encode: " + err.Error())
		}
		buf.Write(raw)
	}
	buf.WriteString("],\"displayTimeUnit\":\"ms\"}")
	return buf.Bytes()
}
