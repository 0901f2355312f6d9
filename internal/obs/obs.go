// Package obs is the virtual-time observability layer: a deterministic
// timeline Recorder for typed run events (rank lifecycle, fabric
// operations, checkpoint waves, recovery phase boundaries, Event Logger
// marks), a virtual-time gauge Sampler, exporters to JSONL and the Chrome
// trace-event format (Perfetto-viewable), and availability metrics (MTTR,
// downtime, rank-availability) derived from a timeline.
//
// The layer's contract is that it is free when disabled: every emission
// site holds a *Recorder that is nil unless tracing was requested, and
// Record on a nil receiver is a single branch with zero allocations. The
// per-message hot path (send, deliver, piggyback) carries no emission
// sites at all — only lifecycle, recovery, checkpoint, fabric and
// high-water events reach the timeline, plus gauge samples on a
// configurable virtual interval.
package obs

import "mpichv/internal/sim"

// Kind classifies one timeline event.
type Kind uint8

// Timeline event kinds.
const (
	// Rank lifecycle, published by the dispatcher's Observe stream in the
	// order a fault produces them.
	//
	// KindKill: a fault was injected on the rank (its incarnation died).
	KindKill Kind = iota
	// KindSuspect: the failure detector declared the rank dead without
	// killing its process (a network partition made it unreachable); a
	// replacement incarnation is scheduled exactly as after a kill.
	KindSuspect
	// KindFenced: at respawn time the suspected rank's process was still
	// alive — the suspicion was false, both incarnations were observed
	// alive, and the stale one was fenced (terminated and its future
	// traffic marked discardable by the incarnation announcement).
	KindFenced
	// KindRestart: the rank's new incarnation started and entered
	// recovery.
	KindRestart
	// KindRecovered: the recovery procedure finished; the program resumes.
	KindRecovered
	// KindFinished: the rank's program completed.
	KindFinished

	// Recovery phase boundaries, stamped by the daemon's phase transition
	// function (recovery.go). RecoveryBegin and RestoreBegin mark entry to
	// the restoring phase, RestoreEnd its exit (checkpoint image fetched
	// and restored); CollectBegin/CollectEnd bracket the determinant wait
	// inside the collecting phase; ReplayBegin marks entry to replaying
	// (absent when the replay set is empty); RecoveryEnd marks the return
	// to up, when the rank resumes free execution.
	KindRecoveryBegin
	KindRestoreBegin
	KindRestoreEnd
	KindCollectBegin
	KindCollectEnd
	KindReplayBegin
	KindRecoveryEnd

	// Checkpointing: a scheduler wave (Arg = epoch) and one rank's
	// blocking checkpoint transaction (CkptEnd's Arg = image bytes).
	KindCkptWave
	KindCkptBegin
	KindCkptEnd

	// Link-fabric operations (stamped by the fault-plan engine; Arg is
	// the plan component index so exporters can pair cut/heal windows).
	KindPartitionCut
	KindPartitionHeal
	KindDegrade
	KindDegradeClear

	// Stable-service outage (Arg = outage duration in virtual ns; Note
	// names the target service).
	KindOutage

	// Event Logger marks: a recovery query served (Rank = querying rank)
	// and a new request-backlog high-water mark (Arg = queue length).
	KindELQuery
	KindELBacklog

	// KindDetLoss marks a detected determinant loss (Rank = victim,
	// Arg = lost clock count).
	KindDetLoss

	// Gauges, emitted by the Sampler (Arg = sampled value).
	KindGaugeHeldDets
	KindGaugeSenderLogBytes
	KindGaugeELBacklog
	KindGaugeLiveRanks

	kindCount
)

// kindNames maps Kind to its stable wire name (JSONL "kind" field).
var kindNames = [kindCount]string{
	KindKill:                "kill",
	KindSuspect:             "suspect",
	KindFenced:              "fenced",
	KindRestart:             "restart",
	KindRecovered:           "recovered",
	KindFinished:            "finished",
	KindRecoveryBegin:       "recovery-begin",
	KindRestoreBegin:        "restore-begin",
	KindRestoreEnd:          "restore-end",
	KindCollectBegin:        "collect-begin",
	KindCollectEnd:          "collect-end",
	KindReplayBegin:         "replay-begin",
	KindRecoveryEnd:         "recovery-end",
	KindCkptWave:            "ckpt-wave",
	KindCkptBegin:           "ckpt-begin",
	KindCkptEnd:             "ckpt-end",
	KindPartitionCut:        "partition-cut",
	KindPartitionHeal:       "partition-heal",
	KindDegrade:             "degrade",
	KindDegradeClear:        "degrade-clear",
	KindOutage:              "outage",
	KindELQuery:             "el-query",
	KindELBacklog:           "el-backlog",
	KindDetLoss:             "det-loss",
	KindGaugeHeldDets:       "gauge-held-determinants",
	KindGaugeSenderLogBytes: "gauge-sender-log-bytes",
	KindGaugeELBacklog:      "gauge-el-backlog",
	KindGaugeLiveRanks:      "gauge-live-ranks",
}

// String returns the kind's stable wire name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// KindFromName resolves a wire name back to its Kind (JSONL readers).
func KindFromName(name string) (Kind, bool) {
	for k, n := range kindNames {
		if n == name {
			return Kind(k), true
		}
	}
	return 0, false
}

// Event is one timeline entry. Rank is -1 for events not scoped to a
// rank (fabric operations, waves, gauges); Arg carries the kind-specific
// scalar (epoch, plan component index, gauge value, lost clocks); Note is
// a kind-specific constant or plan key — always a string that existed
// before the emission, never formatted at the call site, so recording
// stays allocation-free apart from the slice append.
type Event struct {
	T    sim.Time
	Kind Kind
	Rank int
	Arg  int64
	Note string
}

// DefaultSampleInterval is the virtual-time gauge sampling period of a
// traced deployment.
const DefaultSampleInterval = sim.Millisecond

// Recorder accumulates timeline events in kernel execution order. Events
// of one simulation are appended from a single goroutine (the kernel's),
// so the timeline is a deterministic function of the run: byte-identical
// across sweep worker counts.
//
// A nil *Recorder is the disabled layer: every method is nil-receiver
// safe and costs one branch, zero allocations. Emission sites therefore
// call unconditionally.
type Recorder struct {
	events []Event
}

// NewRecorder returns an enabled timeline recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Record appends one event. On a nil receiver it is a no-op (one branch,
// zero allocs) — the disabled-layer contract.
//
//mpichv:noalloc
func (r *Recorder) Record(t sim.Time, kind Kind, rank int, arg int64, note string) {
	if r == nil {
		return
	}
	r.events = append(r.events, Event{T: t, Kind: kind, Rank: rank, Arg: arg, Note: note})
}

// Enabled reports whether the recorder accumulates events (false for the
// nil disabled layer).
//
//mpichv:noalloc
func (r *Recorder) Enabled() bool { return r != nil }

// Events returns the recorded timeline in emission order. The slice is
// the recorder's own backing store; callers must not mutate it.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.events
}

// Len returns the number of recorded events.
//
//mpichv:noalloc
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.events)
}
