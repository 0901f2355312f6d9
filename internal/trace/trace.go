// Package trace holds the measurement probes the experiment harness reads.
// The paper instruments its implementation with piggyback statistics
// (§V-A); Stats is the equivalent per-process probe set.
package trace

import "mpichv/internal/sim"

// Stats accumulates one process's protocol measurements over a run. All
// fields are plain counters written from simulator context (single
// threaded), read after the run completes. A csv tag names the field's
// column in a sweep's CSV (harness.Results.CSV).
type Stats struct {
	// Application traffic (payloads the MPI program asked to move).
	AppBytesSent int64 `csv:"app_bytes_sent"`
	AppMsgsSent  int64 `csv:"app_msgs_sent"`

	// Protocol overhead on the wire.
	PiggybackBytes  int64 `csv:"piggyback_bytes"`  // causality bytes attached to app messages
	PiggybackEvents int64 `csv:"piggyback_events"` // determinants attached to app messages
	HeaderBytes     int64 `csv:"header_bytes"`     // fixed per-message protocol headers
	ControlBytes    int64 `csv:"control_bytes"`    // Event Logger / checkpoint / replay traffic
	ControlMsgs     int64 `csv:"control_msgs"`

	// Piggyback management time (the paper's Figure 8): virtual CPU time
	// spent preparing causality information at send and integrating it at
	// receive.
	SendPiggybackTime sim.Time `csv:"send_piggyback_ns"`
	RecvPiggybackTime sim.Time `csv:"recv_piggyback_ns"`

	// Event accounting.
	EventsCreated int64 `csv:"events_created"` // reception determinants created locally
	EventsLogged  int64 `csv:"events_logged"`  // determinants shipped to the Event Logger

	// FencedStaleMsgs counts application packets discarded because their
	// sender incarnation was fenced after a false suspicion (stale traffic
	// released by a healing partition). Untagged: it is the fenced_stale
	// probe.
	FencedStaleMsgs int64

	// Memory occupancy high-water marks.
	MaxHeldDeterminants int   `csv:"max_held_determinants"` // reducer volatile memory, in events
	MaxSenderLogBytes   int64 `csv:"max_sender_log_bytes"`  // sender-based payload log

	// Recovery timers (the paper's Figure 10).
	RecoveryEventCollection sim.Time `csv:"recovery_event_collection_ns"` // time to recover all events to replay
	RecoveryTotal           sim.Time `csv:"recovery_total_ns"`            // checkpoint fetch + events + replay
	Recoveries              int      `csv:"recoveries"`

	// Checkpointing.
	Checkpoints     int   `csv:"checkpoints"`
	CheckpointBytes int64 `csv:"checkpoint_bytes"`
}

// Add accumulates o into s (used to aggregate per-process stats into a
// deployment total). Aggregation semantics are per field class:
//
//   - Traffic, event and checkpoint counters (AppBytesSent … EventsLogged,
//     FencedStaleMsgs, Checkpoints, CheckpointBytes) are sums: the
//     deployment total is the sum over processes.
//   - Memory high-water marks (MaxHeldDeterminants, MaxSenderLogBytes)
//     take the max: the aggregate answers "how much memory did the
//     worst-off process need", not a meaningless sum of per-process peaks.
//   - Piggyback-management and recovery timers (SendPiggybackTime,
//     RecvPiggybackTime, RecoveryEventCollection, RecoveryTotal) are
//     sums of virtual durations. Consumers wanting a per-recovery mean
//     (the paper's Figure 10 quantity) divide by Recoveries after
//     aggregation — summing first keeps Add associative, so aggregating
//     aggregates remains well-defined.
func (s *Stats) Add(o *Stats) {
	s.AppBytesSent += o.AppBytesSent
	s.AppMsgsSent += o.AppMsgsSent
	s.PiggybackBytes += o.PiggybackBytes
	s.PiggybackEvents += o.PiggybackEvents
	s.HeaderBytes += o.HeaderBytes
	s.ControlBytes += o.ControlBytes
	s.ControlMsgs += o.ControlMsgs
	s.SendPiggybackTime += o.SendPiggybackTime
	s.RecvPiggybackTime += o.RecvPiggybackTime
	s.EventsCreated += o.EventsCreated
	s.EventsLogged += o.EventsLogged
	s.FencedStaleMsgs += o.FencedStaleMsgs
	if o.MaxHeldDeterminants > s.MaxHeldDeterminants {
		s.MaxHeldDeterminants = o.MaxHeldDeterminants
	}
	if o.MaxSenderLogBytes > s.MaxSenderLogBytes {
		s.MaxSenderLogBytes = o.MaxSenderLogBytes
	}
	s.RecoveryEventCollection += o.RecoveryEventCollection
	s.RecoveryTotal += o.RecoveryTotal
	s.Recoveries += o.Recoveries
	s.Checkpoints += o.Checkpoints
	s.CheckpointBytes += o.CheckpointBytes
}

// PiggybackShare returns piggybacked bytes as a fraction of application
// bytes (Figure 7's y axis). Zero application traffic yields zero.
func (s *Stats) PiggybackShare() float64 {
	if s.AppBytesSent == 0 {
		return 0
	}
	return float64(s.PiggybackBytes) / float64(s.AppBytesSent)
}
