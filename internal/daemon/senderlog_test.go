package daemon

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mpichv/internal/event"
	"mpichv/internal/vproto"
)

func mkMsg(dst event.Rank, seq uint64, bytes int) vproto.Message {
	return vproto.Message{
		Src: 0, Dst: dst, Bytes: bytes, SendSeq: seq,
		Piggyback: []event.Determinant{{ID: event.EventID{Creator: 0, Clock: 1}}},
	}
}

// rowOf returns the log's own entries for dst.
func rowOf(l *SenderLog, dst event.Rank) []vproto.LogEntry {
	if i, ok := slices.BinarySearch(l.dsts, dst); ok {
		return l.rows[i]
	}
	return nil
}

func TestSenderLogAppendStripsPiggyback(t *testing.T) {
	l := new(SenderLog)
	m := mkMsg(1, 1, 100)
	m.PiggybackBytes = 24
	l.Append(m)
	got := l.For(1, 0)
	if len(got) != 1 {
		t.Fatalf("For = %d entries, want 1", len(got))
	}
	if re := got[0].Message(0); re.Piggyback != nil || re.PiggybackBytes != 0 {
		t.Error("logged payload must not retain the original piggyback")
	}
	if l.Bytes() != 100 {
		t.Errorf("Bytes = %d, want 100", l.Bytes())
	}
}

func TestSenderLogTrimTo(t *testing.T) {
	l := new(SenderLog)
	for seq := uint64(1); seq <= 5; seq++ {
		l.Append(mkMsg(2, seq, 10))
	}
	l.TrimTo(2, 3)
	if l.Bytes() != 20 {
		t.Errorf("Bytes = %d after trim, want 20", l.Bytes())
	}
	got := l.For(2, 0)
	if len(got) != 2 || got[0].SendSeq != 4 || got[1].SendSeq != 5 {
		t.Errorf("For after trim = %+v", got)
	}
	// Trimming one destination must not touch another.
	l.Append(mkMsg(3, 1, 10))
	l.TrimTo(2, 5)
	if len(l.For(3, 0)) != 1 {
		t.Error("trim leaked across destinations")
	}
}

func TestSenderLogForFloor(t *testing.T) {
	l := new(SenderLog)
	for seq := uint64(1); seq <= 4; seq++ {
		l.Append(mkMsg(1, seq, 8))
	}
	got := l.For(1, 2)
	if len(got) != 2 || got[0].SendSeq != 3 {
		t.Errorf("For(1,2) = %+v", got)
	}
}

func TestSenderLogSnapshotRestore(t *testing.T) {
	l := new(SenderLog)
	l.Append(mkMsg(1, 1, 10))
	l.Append(mkMsg(2, 1, 20))
	snap := l.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("Snapshot = %d entries", len(snap))
	}
	restored := new(SenderLog)
	restored.Restore(snap)
	if restored.Bytes() != 30 {
		t.Errorf("restored Bytes = %d, want 30", restored.Bytes())
	}
	if len(restored.For(1, 0)) != 1 || len(restored.For(2, 0)) != 1 {
		t.Error("restored log lost entries")
	}
}

// TestSenderLogSnapshotDeterministic: checkpoint-image content is a
// function of the log alone — two snapshots of the same log are identical,
// and entries come out sorted by (dst, send sequence) whatever order the
// destinations were first sent to.
func TestSenderLogSnapshotDeterministic(t *testing.T) {
	l := new(SenderLog)
	// Interleave many destinations, each new one inserted ahead of the
	// rows already there.
	for seq := uint64(1); seq <= 4; seq++ {
		for dst := event.Rank(7); dst >= 1; dst-- {
			l.Append(mkMsg(dst, seq, 8))
		}
	}
	a, b := l.Snapshot(), l.Snapshot()
	if len(a) != len(b) || len(a) != 28 {
		t.Fatalf("snapshot sizes %d/%d, want 28", len(a), len(b))
	}
	for i := range a {
		if a[i].Dst != b[i].Dst || a[i].SendSeq != b[i].SendSeq {
			t.Fatalf("snapshots diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	for i := 1; i < len(a); i++ {
		p, q := &a[i-1], &a[i]
		if p.Dst > q.Dst || (p.Dst == q.Dst && p.SendSeq >= q.SendSeq) {
			t.Fatalf("snapshot unordered at %d: (%d,%d) then (%d,%d)", i, p.Dst, p.SendSeq, q.Dst, q.SendSeq)
		}
	}
}

// TestSenderLogTrimZeroesTail: trimming compacts a row in place, keeping
// its capacity, and leaves no trimmed entry in the vacated tail.
func TestSenderLogTrimZeroesTail(t *testing.T) {
	l := new(SenderLog)
	for seq := uint64(1); seq <= 5; seq++ {
		l.Append(mkMsg(2, seq, 10))
	}
	before := rowOf(l, 2)
	l.TrimTo(2, 3)
	entries := rowOf(l, 2)
	if len(entries) != 2 {
		t.Fatalf("kept %d entries, want 2", len(entries))
	}
	if &before[0] != &entries[0] {
		t.Fatal("trim reallocated instead of compacting in place")
	}
	// The previously occupied tail slots must be zeroed.
	for i := len(entries); i < len(before); i++ {
		if before[i] != (vproto.LogEntry{}) {
			t.Fatalf("tail slot %d retains %+v after trim", i, before[i])
		}
	}
}

// TestSenderLogForIsAView: serving replay must not allocate per recovery —
// For returns a suffix of the log's own row for the destination, not a
// copy.
func TestSenderLogForIsAView(t *testing.T) {
	l := new(SenderLog)
	for seq := uint64(1); seq <= 4; seq++ {
		l.Append(mkMsg(1, seq, 8))
		l.Append(mkMsg(2, seq, 8))
	}
	a := l.For(1, 0)
	if len(a) != 4 || &a[0] != &rowOf(l, 1)[0] {
		t.Fatalf("For(1,0) = %d entries, not a view of the log", len(a))
	}
	b := l.For(2, 2)
	if len(b) != 2 || b[0].SendSeq != 3 || &b[0] != &rowOf(l, 2)[2] {
		t.Fatalf("For(2,2) = %+v, not a view of the log", b)
	}
	if allocs := testing.AllocsPerRun(50, func() { l.For(1, 0) }); allocs > 0 {
		t.Errorf("For allocates %.1f per call, want 0", allocs)
	}
}

// TestSenderLogMatchesReference drives seeded random Append / TrimTo /
// Snapshot / Restore sequences over several destinations against a plain
// slice of every live message, and after each step checks For at several
// floors (each entry expanded back into the message it logged), Bytes,
// and the (dst, seq) order of Snapshot.
func TestSenderLogMatchesReference(t *testing.T) {
	const dsts = 4
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8} {
		rng := rand.New(rand.NewSource(seed))
		l := new(SenderLog)
		var ref []vproto.Message // live entries, in append order
		sendSeq := make([]uint64, dsts)
		for step := 0; step < 400; step++ {
			dst := event.Rank(rng.Intn(dsts))
			switch op := rng.Intn(10); {
			case op < 6:
				sendSeq[dst]++
				m := mkMsg(dst, sendSeq[dst], 1+rng.Intn(64))
				m.Tag, m.Lamport = rng.Intn(100)-50, rng.Uint64()>>32
				m.SenderLast = event.EventID{Creator: event.Rank(rng.Intn(dsts)), Clock: rng.Uint64() >> 32}
				l.Append(m)
				m.Piggyback = nil
				ref = append(ref, m)
			case op < 8:
				floor := uint64(rng.Int63n(int64(sendSeq[dst]) + 2))
				l.TrimTo(dst, floor)
				ref = slices.DeleteFunc(ref, func(m vproto.Message) bool {
					return m.Dst == dst && m.SendSeq <= floor
				})
			case op < 9:
				snap := l.Snapshot()
				for i := 1; i < len(snap); i++ {
					p, q := snap[i-1], snap[i]
					if p.Dst > q.Dst || (p.Dst == q.Dst && p.SendSeq >= q.SendSeq) {
						t.Fatalf("seed %d step %d: snapshot unordered at %d", seed, step, i)
					}
				}
				if len(snap) != len(ref) {
					t.Fatalf("seed %d step %d: snapshot has %d entries, reference %d", seed, step, len(snap), len(ref))
				}
			default:
				snap := l.Snapshot()
				l = new(SenderLog)
				l.Restore(snap)
			}

			var bytes int64
			for _, m := range ref {
				bytes += int64(m.Bytes)
			}
			if l.Bytes() != bytes {
				t.Fatalf("seed %d step %d: Bytes = %d, reference %d", seed, step, l.Bytes(), bytes)
			}
			for d := event.Rank(0); d < dsts; d++ {
				for _, floor := range []uint64{0, sendSeq[d] / 2, sendSeq[d]} {
					var want []vproto.Message
					for _, m := range ref {
						if m.Dst == d && m.SendSeq > floor {
							want = append(want, m)
						}
					}
					got := l.For(d, floor)
					if len(got) != len(want) {
						t.Fatalf("seed %d step %d: For(%d,%d) = %d entries, reference %d", seed, step, d, floor, len(got), len(want))
					}
					for i := range want {
						if re := got[i].Message(0); !reflect.DeepEqual(re, want[i]) {
							t.Fatalf("seed %d step %d: For(%d,%d)[%d] = %+v, reference %+v", seed, step, d, floor, i, re, want[i])
						}
					}
				}
			}
		}
	}
}
