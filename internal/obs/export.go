package obs

import (
	"bytes"
	"encoding/json"
	"sort"

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

// chromeBuilder accumulates trace events and per-track open windows.
type chromeBuilder struct {
	out []chromeEvent
	end sim.Time
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

// rankSpans is the per-rank window state: a rank can simultaneously hold
// an open down window, an open recovery window with one open sub-phase,
// and (outside recovery) an open checkpoint transaction. Windows that a
// re-kill interrupts are force-closed at the kill instant, so the output
// never contains unbalanced slices.
type rankSpans struct {
	down, recovery, restore, collect, replay, ckpt span
}

// ChromeTrace renders the timeline in Chrome trace-event JSON (viewable
// in Perfetto / chrome://tracing): one lifecycle track and one
// recovery-phase track per rank, fabric windows paired by plan component,
// service outages, and sampled gauges as counter tracks. Windows still
// open when the timeline ends are closed at end.
func ChromeTrace(events []Event, np int, end sim.Time) []byte {
	b := &chromeBuilder{end: end}
	b.meta(pidLifecycle, 0, "process_name", "rank lifecycle")
	b.meta(pidPhases, 0, "process_name", "recovery phases")
	b.meta(pidFabric, 0, "process_name", "link fabric")
	b.meta(pidServices, 0, "process_name", "stable services")
	b.meta(pidGauges, 0, "process_name", "gauges")

	ranks := make([]rankSpans, np)
	rs := func(r int) *rankSpans {
		if r < 0 || r >= np {
			return nil
		}
		return &ranks[r]
	}
	// interrupt force-closes every window a kill cuts short.
	interrupt := func(r *rankSpans, rank int, t sim.Time) {
		b.close(&r.restore, "restore", pidPhases, rank, t, nil)
		b.close(&r.collect, "collect", pidPhases, rank, t, nil)
		b.close(&r.replay, "replay", pidPhases, rank, t, nil)
		b.close(&r.recovery, "recovery", pidPhases, rank, t, nil)
		b.close(&r.ckpt, "checkpoint", pidPhases, rank, t, nil)
	}
	partitions := map[int64]*span{}
	degrades := map[int64]*span{}

	for _, ev := range events {
		t := ev.T
		switch ev.Kind {
		case KindKill, KindSuspect:
			if r := rs(ev.Rank); r != nil {
				b.instant(ev.Kind.String(), pidLifecycle, ev.Rank, t, nil)
				interrupt(r, ev.Rank, t)
				if !r.down.open {
					r.down = span{start: t, open: true}
				}
			}
		case KindRestart:
			if r := rs(ev.Rank); r != nil && !r.down.open {
				// A coordinated-rollback peer restarts without a prior
				// kill event; its down window opens here.
				r.down = span{start: t, open: true}
			}
		case KindRecovered, KindFinished:
			if r := rs(ev.Rank); r != nil {
				b.close(&r.down, "down", pidLifecycle, ev.Rank, t, nil)
				if ev.Kind == KindFinished {
					b.instant("finished", pidLifecycle, ev.Rank, t, nil)
					interrupt(r, ev.Rank, t)
				}
			}
		case KindFenced, KindDetLoss, KindELQuery:
			if ev.Rank >= 0 {
				args := map[string]any(nil)
				if ev.Kind == KindDetLoss {
					args = map[string]any{"lost_clocks": ev.Arg}
				}
				b.instant(ev.Kind.String(), pidLifecycle, ev.Rank, t, args)
			}
		case KindRecoveryBegin:
			if r := rs(ev.Rank); r != nil {
				r.recovery = span{start: t, open: true}
			}
		case KindRestoreBegin:
			if r := rs(ev.Rank); r != nil {
				r.restore = span{start: t, open: true}
			}
		case KindRestoreEnd:
			if r := rs(ev.Rank); r != nil {
				b.close(&r.restore, "restore", pidPhases, ev.Rank, t, nil)
			}
		case KindCollectBegin:
			if r := rs(ev.Rank); r != nil {
				r.collect = span{start: t, open: true}
			}
		case KindCollectEnd:
			if r := rs(ev.Rank); r != nil {
				b.close(&r.collect, "collect", pidPhases, ev.Rank, t, nil)
			}
		case KindReplayBegin:
			if r := rs(ev.Rank); r != nil {
				r.replay = span{start: t, open: true}
			}
		case KindRecoveryEnd:
			if r := rs(ev.Rank); r != nil {
				b.close(&r.replay, "replay", pidPhases, ev.Rank, t, nil)
				b.close(&r.recovery, "recovery", pidPhases, ev.Rank, t, nil)
			}
		case KindCkptBegin:
			if r := rs(ev.Rank); r != nil {
				r.ckpt = span{start: t, open: true}
			}
		case KindCkptEnd:
			if r := rs(ev.Rank); r != nil {
				b.close(&r.ckpt, "checkpoint", pidPhases, ev.Rank, t, map[string]any{"image_bytes": ev.Arg})
			}
		case KindCkptWave:
			b.instant("ckpt-wave", pidFabric, 0, t, map[string]any{"epoch": ev.Arg})
		case KindPartitionCut:
			partitions[ev.Arg] = &span{start: t, open: true}
		case KindPartitionHeal:
			if s, ok := partitions[ev.Arg]; ok && s.open {
				b.close(s, "partition", pidFabric, 1+int(ev.Arg), t, map[string]any{"spec": ev.Note})
			}
		case KindDegrade:
			degrades[ev.Arg] = &span{start: t, open: true}
		case KindDegradeClear:
			if s, ok := degrades[ev.Arg]; ok && s.open {
				b.close(s, "degraded", pidFabric, 1+int(ev.Arg), t, map[string]any{"spec": ev.Note})
			}
		case KindOutage:
			b.slice("outage:"+ev.Note, pidServices, 0, t, t+sim.Time(ev.Arg), nil)
		case KindELBacklog:
			b.counter("el-backlog-highwater", t, ev.Arg)
		case KindGaugeHeldDets, KindGaugeSenderLogBytes, KindGaugeELBacklog, KindGaugeLiveRanks:
			b.counter(ev.Kind.String(), t, ev.Arg)
		}
	}

	// Close whatever the end of the run left open.
	for rank := range ranks {
		r := &ranks[rank]
		interrupt(r, rank, end)
		b.close(&r.down, "down", pidLifecycle, rank, end, nil)
	}
	for _, s := range sortedSpans(partitions) {
		b.close(s.s, "partition", pidFabric, 1+int(s.idx), end, nil)
	}
	for _, s := range sortedSpans(degrades) {
		b.close(s.s, "degraded", pidFabric, 1+int(s.idx), end, nil)
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

// sortedSpans yields still-open map spans in ascending key order so the
// trailing close-out pass is deterministic.
func sortedSpans(m map[int64]*span) []struct {
	idx int64
	s   *span
} {
	var keys []int64
	for k, s := range m {
		if s.open {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]struct {
		idx int64
		s   *span
	}, len(keys))
	for i, k := range keys {
		out[i].idx, out[i].s = k, m[k]
	}
	return out
}
