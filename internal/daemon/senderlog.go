package daemon

import (
	"sort"

	"mpichv/internal/event"
	"mpichv/internal/vproto"
)

// SenderLog is the sender-based payload store every message-logging
// protocol relies on (§III of the paper): each sent message's payload stays
// in the sender's volatile memory until the receiver's next checkpoint
// covers it, so a crashed receiver can ask for it to be re-sent.
type SenderLog struct {
	// perDst[d] holds the logged messages sent to rank d, in ascending
	// send sequence.
	perDst map[event.Rank][]vproto.Message
	bytes  int64
}

// NewSenderLog returns an empty log.
func NewSenderLog() *SenderLog {
	return &SenderLog{perDst: make(map[event.Rank][]vproto.Message)}
}

// Append stores a copy of m's payload metadata.
func (l *SenderLog) Append(m vproto.Message) {
	m.Piggyback = nil // piggyback is regenerated at replay time
	m.PiggybackBytes = 0
	l.perDst[m.Dst] = append(l.perDst[m.Dst], m)
	l.bytes += int64(m.Bytes)
}

// Bytes reports the volatile memory the log occupies.
func (l *SenderLog) Bytes() int64 { return l.bytes }

// TrimTo discards payloads sent to dst with sequence ≤ seqFloor: the
// receiver checkpointed past them (PktCkptGC).
func (l *SenderLog) TrimTo(dst event.Rank, seqFloor uint64) {
	entries := l.perDst[dst]
	cut := 0
	for cut < len(entries) && entries[cut].SendSeq <= seqFloor {
		l.bytes -= int64(entries[cut].Bytes)
		cut++
	}
	if cut > 0 {
		// Compact in place; the slice keeps its capacity for future sends.
		// The vacated tail is zeroed so trimmed payloads do not stay
		// reachable past the bytes accounting that released them.
		kept := copy(entries, entries[cut:])
		for i := kept; i < len(entries); i++ {
			entries[i] = vproto.Message{}
		}
		l.perDst[dst] = entries[:kept]
	}
}

// For returns the logged payloads sent to dst with sequence > seqFloor, in
// send order — the replay set for dst's recovery. Each destination's
// entries ascend in send sequence (Append follows the channel counter,
// Restore rebuilds from an image ordered the same way, TrimTo cuts only a
// prefix), so the set is a suffix and For returns a view of the log
// itself, allocating nothing. The view is only valid until the log next
// changes: replayLogged copies it before any virtual time passes.
func (l *SenderLog) For(dst event.Rank, seqFloor uint64) []vproto.Message {
	entries := l.perDst[dst]
	i := 0
	for i < len(entries) && entries[i].SendSeq <= seqFloor {
		i++
	}
	return entries[i:]
}

// Snapshot returns all entries (checkpoint image content), ordered by
// (destination, send sequence) so identical logs produce identical images
// regardless of map iteration order, or nil when the log is empty.
// Per-destination slices are already in send order (Append/TrimTo maintain
// it), so only the destination keys — at most one per rank — need sorting.
func (l *SenderLog) Snapshot() []vproto.Message {
	dsts := make([]event.Rank, 0, len(l.perDst))
	total := 0
	for dst, entries := range l.perDst {
		if len(entries) > 0 {
			dsts = append(dsts, dst)
			total += len(entries)
		}
	}
	if total == 0 {
		return nil
	}
	sort.Slice(dsts, func(i, j int) bool { return dsts[i] < dsts[j] })
	out := make([]vproto.Message, 0, total)
	for _, dst := range dsts {
		out = append(out, l.perDst[dst]...)
	}
	return out
}

// Restore replaces the log content from a checkpoint image.
func (l *SenderLog) Restore(entries []vproto.Message) {
	l.perDst = make(map[event.Rank][]vproto.Message)
	l.bytes = 0
	for _, m := range entries {
		l.perDst[m.Dst] = append(l.perDst[m.Dst], m)
		l.bytes += int64(m.Bytes)
	}
}
