package causal

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"mpichv/internal/causal/sparsevec"
	"mpichv/internal/event"
)

// TestLogOnRunMergeIsStableLamportSort drives two LogOn reducers over one
// random held graph and checks, at every send, that the run merge emits
// exactly what the stable sort of the factored frontier by Lamport value
// does, at the same op count. Lamport values come from a narrow range, so
// ties across creators are common, and now and then a creator's next event
// takes a lower value than its last — the ID re-created by a regressed
// recovery — so one chain yields several runs.
func TestLogOnRunMergeIsStableLamportSort(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	descents := 0
	for trial := 0; trial < 40; trial++ {
		np := 2 + r.Intn(63)
		l, ref := NewLogOn(0, np), NewLogOn(0, np)
		clock := make([]uint64, np)
		lamport := make([]uint64, np)
		lastEvt := make([]event.EventID, np)
		for step := 0; step < 400; step++ {
			switch c := r.Intn(np); {
			case step%97 == 96:
				ack := sparsevec.New(np)
				ack.SetMax(c, clock[c]/2)
				l.Stable(ack)
				ref.Stable(ack)
			case r.Intn(4) > 0:
				clock[c]++
				if r.Intn(10) == 0 {
					lamport[c] -= min(lamport[c], uint64(1+r.Intn(4)))
				} else {
					lamport[c] += uint64(r.Intn(3))
				}
				d := event.Determinant{
					ID:      event.EventID{Creator: event.Rank(c), Clock: clock[c]},
					Sender:  event.Rank(r.Intn(np)),
					SendSeq: clock[c],
					Parent:  lastEvt[r.Intn(np)],
					Lamport: lamport[c] + 1,
				}
				lastEvt[c] = d.ID
				l.AddLocal(d)
				ref.AddLocal(d)
			default:
				spans, k := ref.frontier(event.Rank(c), true)
				want := ref.appendSpans(nil, spans)
				for i := 1; i < len(want); i++ {
					if want[i].ID.Creator == want[i-1].ID.Creator && want[i].Lamport < want[i-1].Lamport {
						descents++
					}
				}
				slices.SortStableFunc(want, func(a, b event.Determinant) int { return cmp.Compare(a.Lamport, b.Lamport) })
				got, ops := l.AppendPiggybackFor(event.Rank(c), nil)
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d (np %d), send to %d:\n got %v\nwant %v", trial, np, c, got, want)
				}
				if wantOps := int64(k)*(1+log2ceil(k)) + int64(np) + int64(ref.held)/3; ops != wantOps {
					t.Fatalf("trial %d (np %d): %d ops, want %d", trial, np, ops, wantOps)
				}
			}
		}
	}
	if descents == 0 {
		t.Fatal("no emitted chain had a Lamport descent: the multi-run path went untested")
	}
}
