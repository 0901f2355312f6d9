package daemon

import (
	"slices"
	"sort"
	"unsafe"

	"mpichv/internal/event"
	"mpichv/internal/vproto"
)

// SenderLog is the sender-based payload store every message-logging
// protocol relies on (§III of the paper): each sent message's payload stays
// in the sender's volatile memory until the receiver's next checkpoint
// covers it, so a crashed receiver can ask for it to be re-sent. The zero
// value is an empty log.
type SenderLog struct {
	// rows[i] holds the entries sent to dsts[i], in ascending send
	// sequence; dsts ascends. A rank sends to few of a wide world's ranks,
	// so the table is not rank-indexed.
	dsts  []event.Rank
	rows  [][]vproto.LogEntry
	bytes int64
}

// Append logs m; replay regenerates its piggyback.
func (l *SenderLog) Append(m vproto.Message) {
	i, ok := slices.BinarySearch(l.dsts, m.Dst)
	if !ok {
		l.dsts, l.rows = slices.Insert(l.dsts, i, m.Dst), slices.Insert(l.rows, i, nil)
	}
	l.rows[i] = append(l.rows[i], vproto.NewLogEntry(&m))
	l.bytes += int64(m.Bytes)
}

// Bytes reports the volatile memory the log occupies.
func (l *SenderLog) Bytes() int64 { return l.bytes }

// HeldBytes reports the host memory the rows hold: capacity × entry size.
func (l *SenderLog) HeldBytes() (b int64) {
	for _, row := range l.rows {
		b += int64(cap(row)) * int64(unsafe.Sizeof(vproto.LogEntry{}))
	}
	return b
}

// TrimTo discards payloads sent to dst with sequence ≤ seqFloor: the
// receiver checkpointed past them (PktCkptGC).
func (l *SenderLog) TrimTo(dst event.Rank, seqFloor uint64) {
	i, ok := slices.BinarySearch(l.dsts, dst)
	if !ok {
		return
	}
	row, keep := l.rows[i], l.For(dst, seqFloor)
	for _, e := range row[:len(row)-len(keep)] {
		l.bytes -= int64(e.Bytes)
	}
	// Compact in place, keeping the capacity, the vacated tail zeroed.
	kept := copy(row, keep)
	clear(row[kept:])
	l.rows[i] = row[:kept]
}

// For returns the logged payloads sent to dst with sequence > seqFloor, in
// send order — the replay set for dst's recovery. It is a suffix of dst's
// row, so For returns a view of the log itself, allocating nothing. The
// view is only valid until the log next changes: replayLogged expands it
// before any virtual time passes.
func (l *SenderLog) For(dst event.Rank, seqFloor uint64) []vproto.LogEntry {
	i, ok := slices.BinarySearch(l.dsts, dst)
	if !ok {
		return nil
	}
	row := l.rows[i]
	return row[sort.Search(len(row), func(j int) bool { return uint64(row[j].SendSeq) > seqFloor }):]
}

// Snapshot returns all entries (checkpoint image content) in the rows'
// (destination, send sequence) order, or nil when the log is empty.
func (l *SenderLog) Snapshot() []vproto.LogEntry { return slices.Concat(l.rows...) }

// Restore replaces the log content from a checkpoint image, whose entries
// are in Snapshot's order. The rows share one copy of them, each capped at
// its own end, so a row's first Append after it moves that row out.
func (l *SenderLog) Restore(entries []vproto.LogEntry) {
	all := slices.Clone(entries)
	l.dsts, l.rows, l.bytes = nil, nil, 0
	for i, j := 0, 0; i < len(all); i = j {
		for j = i; j < len(all) && all[j].Dst == all[i].Dst; j++ {
			l.bytes += int64(all[j].Bytes)
		}
		l.dsts, l.rows = append(l.dsts, all[i].Dst), append(l.rows, all[i:j:j])
	}
}
