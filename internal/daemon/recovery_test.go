package daemon

import (
	"cmp"
	"maps"
	"reflect"
	"slices"
	"testing"

	"mpichv/internal/event"
	"mpichv/internal/netmodel"
	"mpichv/internal/obs"
	"mpichv/internal/sim"
	"mpichv/internal/vproto"
)

// TestTransitionTable drives the transition function over every ordered
// phase pair: an edge in phaseEdges must bump the epoch exactly on entry
// to restoring and emit exactly its phase events; an edge outside it must
// panic and change nothing.
func TestTransitionTable(t *testing.T) {
	// Timeline events per legal edge; entering restoring aborts whatever
	// the dead incarnation was doing, so it never emits an end event.
	begin := []obs.Kind{obs.KindRecoveryBegin, obs.KindRestoreBegin}
	wantEvents := map[[2]phase][]obs.Kind{
		{phaseUp, phaseRestoring}:         begin,
		{phaseRestoring, phaseRestoring}:  begin,
		{phaseCollecting, phaseRestoring}: begin,
		{phaseReplaying, phaseRestoring}:  begin,
		{phaseRestoring, phaseCollecting}: {obs.KindRestoreEnd},
		{phaseRestoring, phaseUp}:         {obs.KindRestoreEnd, obs.KindRecoveryEnd},
		{phaseCollecting, phaseReplaying}: {obs.KindReplayBegin},
		{phaseCollecting, phaseUp}:        {obs.KindRecoveryEnd},
		{phaseReplaying, phaseUp}:         {obs.KindRecoveryEnd},
	}
	for from := phaseUp; from < phaseCount; from++ {
		for to := phaseUp; to < phaseCount; to++ {
			_, n, _ := twoNodes(t)
			n.Obs = obs.NewRecorder()
			n.phase, n.charged, n.recoveryEpoch = from, true, 7
			want, legal := wantEvents[[2]phase{from, to}]
			if legal != phaseEdges[from][to] {
				t.Fatalf("edge %d→%d: table says legal=%v, test expects %v", from, to, phaseEdges[from][to], legal)
			}
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				n.transition(to)
				return
			}()
			if panicked == legal {
				t.Fatalf("edge %d→%d: panicked=%v, legal=%v", from, to, panicked, legal)
			}
			if !legal {
				if n.phase != from || n.recoveryEpoch != 7 || n.Obs.Len() != 0 {
					t.Fatalf("illegal edge %d→%d mutated the node", from, to)
				}
				continue
			}
			if n.phase != to {
				t.Fatalf("edge %d→%d left phase %d", from, to, n.phase)
			}
			wantEpoch, wantRecoveries := 7, 0
			if to == phaseRestoring {
				wantEpoch, wantRecoveries = 8, 1
			}
			if n.recoveryEpoch != wantEpoch || n.stats.Recoveries != wantRecoveries {
				t.Fatalf("edge %d→%d: epoch %d recoveries %d, want %d/%d",
					from, to, n.recoveryEpoch, n.stats.Recoveries, wantEpoch, wantRecoveries)
			}
			var got []obs.Kind
			for _, ev := range n.Obs.Events() {
				got = append(got, ev.Kind)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("edge %d→%d emitted %v, want %v", from, to, got, want)
			}
		}
	}
}

// TestAdmissionTable drives process over every phase × whether the
// application packet's sender incarnation is fenced: a fenced packet is
// dropped and counted in every phase, and a current one is held while the
// node restores and queued for matching otherwise.
func TestAdmissionTable(t *testing.T) {
	for ph := phaseUp; ph < phaseCount; ph++ {
		for _, fenced := range []bool{false, true} {
			k, _, n := twoNodes(t)
			k.Spawn("b", func(p *sim.Proc) {
				n.Bind(p)
				n.phase = ph
				n.FenceIncarnation(0, 1)
				pkt := vproto.GetPacket()
				pkt.Kind = vproto.PktApp
				pkt.App = &vproto.Message{Src: 0, Dst: 1, Bytes: 10, SendSeq: 1, Inc: 1}
				if fenced {
					pkt.App.Inc = 0
				}
				n.process(netmodel.Delivery{Src: 0, Bytes: 10, Payload: pkt})
			})
			k.Run()
			got := [3]int{len(n.heldApp), len(n.recvQ), int(n.stats.FencedStaleMsgs)}
			want := [3]int{0, 1, 0} // held, queued, dropped
			switch {
			case fenced:
				want = [3]int{0, 0, 1}
			case ph == phaseRestoring:
				want = [3]int{1, 0, 0}
			}
			if got != want {
				t.Errorf("phase %d fenced=%v: held, queued, dropped = %v, want %v", ph, fenced, got, want)
			}
		}
	}
}

// TestTransitionChargesOnlyOwnRecoveries: a coordinated-rollback peer's
// restart (charged false) passes through the same phases but stays out of
// the recovery probes.
func TestTransitionChargesOnlyOwnRecoveries(t *testing.T) {
	_, n, _ := twoNodes(t)
	n.transition(phaseRestoring)
	n.transition(phaseUp)
	if n.stats.Recoveries != 0 || n.stats.RecoveryTotal != 0 || n.recoveryEpoch != 1 {
		t.Fatalf("peer rollback charged: %+v epoch %d", n.stats, n.recoveryEpoch)
	}
}

func det(creator event.Rank, clock uint64) event.Determinant {
	return event.Determinant{ID: event.EventID{Creator: creator, Clock: clock}, Sender: 9, SendSeq: clock}
}

// TestAssembleReplay checks the replay-set assembly on hand-built
// collections, with no cluster: ordering, cross-responder deduplication
// (first arrival wins), the checkpoint base filter and gap detection.
func TestAssembleReplay(t *testing.T) {
	const me = event.Rank(1)
	dup := det(me, 4)
	dup.Sender = 3 // a later responder's differing copy must lose
	cases := []struct {
		name      string
		collected []event.Determinant
		base      uint64
		wantAll   []event.Determinant
		wantOwn   []event.Determinant
		wantGap   DeterminantLoss
	}{
		{name: "empty"},
		{
			name:      "gapless, interleaved responders",
			collected: []event.Determinant{det(me, 5), det(0, 2), det(me, 3), det(me, 4), det(0, 1)},
			base:      2,
			wantAll:   []event.Determinant{det(0, 1), det(0, 2), det(me, 3), det(me, 4), det(me, 5)},
			wantOwn:   []event.Determinant{det(me, 3), det(me, 4), det(me, 5)},
		},
		{
			name:      "duplicates across responders",
			collected: []event.Determinant{det(me, 4), det(me, 3), dup, det(me, 3), det(2, 7), det(2, 7)},
			base:      2,
			wantAll:   []event.Determinant{det(me, 3), det(me, 4), det(2, 7)},
			wantOwn:   []event.Determinant{det(me, 3), det(me, 4)},
		},
		{
			name:      "at or below the checkpoint base is not replayed",
			collected: []event.Determinant{det(me, 1), det(me, 2), det(me, 3)},
			base:      2,
			wantAll:   []event.Determinant{det(me, 1), det(me, 2), det(me, 3)},
			wantOwn:   []event.Determinant{det(me, 3)},
		},
		{
			name:      "hole in the middle and right above the base",
			collected: []event.Determinant{det(me, 9), det(me, 5), det(me, 6)},
			base:      3,
			wantAll:   []event.Determinant{det(me, 5), det(me, 6), det(me, 9)},
			wantOwn:   []event.Determinant{det(me, 5), det(me, 6), det(me, 9)},
			wantGap:   DeterminantLoss{MissingFrom: 4, MissingTo: 8, Lost: 3, Gap: true},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			all, own, gap := assembleReplay(tc.collected, nil, me, tc.base)
			if !slices.Equal(all, tc.wantAll) {
				t.Errorf("all = %v, want %v", all, tc.wantAll)
			}
			if !slices.Equal(own, tc.wantOwn) {
				t.Errorf("replay set = %v, want %v", own, tc.wantOwn)
			}
			if !reflect.DeepEqual(gap, tc.wantGap) { // DeterminantLoss holds a slice: not comparable
				t.Errorf("gap = %+v, want %+v", gap, tc.wantGap)
			}
		})
	}
}

// FuzzAssembleReplay checks assembleReplay against referenceReplay. Byte 0
// picks the recovering creator (of 4) and byte 1 the checkpoint's clock
// base. Each following byte pair is one collected determinant: the first
// byte's low two bits are its creator and the rest its sender; the second
// byte's low five bits give its clock (1–32, so duplicates and holes are
// common) and the rest a content variant, so a later duplicate can differ
// from the copy that arrived first.
func FuzzAssembleReplay(f *testing.F) {
	f.Add([]byte{1, 2, 1 | 9<<2, 4, 9 << 2, 1, 1 | 9<<2, 2, 1 | 9<<2, 3, 9 << 2, 0}) // gapless, interleaved responders
	f.Add([]byte{1, 2, 1, 3, 1, 2, 1 | 3<<2, 3 | 32, 1, 2, 2, 6, 2, 6})              // duplicates, a later copy differing
	f.Add([]byte{1, 3, 1, 8, 1, 4, 1, 5})                                            // holes right above the base and inside
	f.Add([]byte{3, 0, 3, 31, 2, 0, 3, 0, 3, 31 | 64})                               // one hole spanning almost every clock
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		in = in[:min(len(in), 512)]
		creator, base := event.Rank(in[0]%4), uint64(in[1]%16)
		var collected []event.Determinant
		for i := 2; i+1 < len(in); i += 2 {
			collected = append(collected, event.Determinant{
				ID:      event.EventID{Creator: event.Rank(in[i] & 3), Clock: 1 + uint64(in[i+1]%32)},
				Sender:  event.Rank(in[i] >> 2),
				SendSeq: uint64(in[i+1] / 32),
			})
		}
		wantAll, wantOwn, wantGap := referenceReplay(collected, creator, base)
		all, own, gap := assembleReplay(slices.Clone(collected), nil, creator, base)
		for i := 1; i < len(all); i++ {
			if a, b := all[i-1].ID, all[i].ID; a.Creator > b.Creator || a.Creator == b.Creator && a.Clock >= b.Clock {
				t.Fatalf("all is not strictly ascending at %d: %v then %v", i, a, b)
			}
		}
		if !slices.Equal(all, wantAll) {
			t.Fatalf("all = %v, want %v", all, wantAll)
		}
		if !slices.Equal(own, wantOwn) {
			t.Fatalf("replay set = %v, want %v", own, wantOwn)
		}
		if !reflect.DeepEqual(gap, wantGap) {
			t.Fatalf("gap = %+v, want %+v", gap, wantGap)
		}
	})
}

// referenceReplay is assembleReplay written plainly: the first-arrived copy
// of each ID, kept in a map and then sorted; creator's determinants above
// base; and every clock missing between base and the highest one held.
func referenceReplay(collected []event.Determinant, creator event.Rank, base uint64) (all, own []event.Determinant, gap DeterminantLoss) {
	first := make(map[event.EventID]event.Determinant)
	for _, d := range collected {
		if _, ok := first[d.ID]; !ok {
			first[d.ID] = d
		}
	}
	all = slices.SortedFunc(maps.Values(first), func(a, b event.Determinant) int {
		return cmp.Or(cmp.Compare(a.ID.Creator, b.ID.Creator), cmp.Compare(a.ID.Clock, b.ID.Clock))
	})
	held, top := make(map[uint64]bool), base
	for _, d := range all {
		if d.ID.Creator == creator && d.ID.Clock > base {
			own = append(own, d)
			held[d.ID.Clock], top = true, d.ID.Clock
		}
	}
	for c := base + 1; c <= top; c++ {
		if held[c] {
			continue
		}
		if gap.Lost == 0 {
			gap.MissingFrom = c
		}
		gap.MissingTo, gap.Gap = c, true
		gap.Lost++
	}
	return all, own, gap
}
