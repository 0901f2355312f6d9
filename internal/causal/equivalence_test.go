package causal

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"mpichv/internal/causal/sparsevec"
	"mpichv/internal/event"
)

// TestPropertySparseDenseEquivalence pins the tentpole invariant of the
// sparse causality state: the interval-coded and the dense representations
// are observationally identical. The same random AddLocal/Merge/Stable/
// AppendPiggybackFor script runs once with every vector forced sparse and once
// with every vector forced dense; the piggyback sets (content and order),
// the op counts — the virtual-CPU cost model — and Held() must match
// exactly at every step, for every reducer, at world sizes on both sides
// of the density threshold (including NP 257, where densification would
// cost real memory).
func TestPropertySparseDenseEquivalence(t *testing.T) {
	for _, name := range Names() {
		for _, np := range []int{4, 16, 64, 257} {
			msgs := 300
			if np >= 64 {
				msgs = 150 // keep the large worlds affordable
			}
			sparse := equivDigest(t, name, np, msgs, 42, sparsevec.ModeSparse)
			dense := equivDigest(t, name, np, msgs, 42, sparsevec.ModeDense)
			if sparse != dense {
				t.Errorf("%s np=%d: sparse digest %x != dense digest %x — representations observably differ",
					name, np, sparse, dense)
			}
		}
	}
}

// equivDigest runs one scripted random exchange under the forced
// representation mode and folds every observable output — piggyback event
// IDs in emission order, op counts, Held() — into one hash.
func equivDigest(t *testing.T, name string, np, msgs int, seed int64, mode sparsevec.Mode) uint64 {
	t.Helper()
	restore := sparsevec.SetModeForTest(mode)
	defer restore()

	r := rand.New(rand.NewSource(seed))
	rs := make([]Reducer, np)
	for i := range rs {
		rs[i] = New(name, event.Rank(i), np)
	}
	clock := make([]uint64, np)
	sendSeq := make([]uint64, np)
	lamport := make([]uint64, np)
	lastEvt := make([]event.EventID, np)
	stable := make([]uint64, np)

	h := fnv.New64a()
	for m := 0; m < msgs; m++ {
		src := r.Intn(np)
		dst := r.Intn(np - 1)
		if dst >= src {
			dst++
		}
		pb, ops := rs[src].AppendPiggybackFor(event.Rank(dst), nil)
		fmt.Fprintf(h, "send %d->%d ops=%d n=%d\n", src, dst, ops, len(pb))
		for _, e := range pb {
			fmt.Fprintf(h, "pb %d:%d\n", e.ID.Creator, e.ID.Clock)
		}

		mergeOps := rs[dst].Merge(event.Rank(src), pb)
		sendSeq[src]++
		clock[dst]++
		if lamport[src] > lamport[dst] {
			lamport[dst] = lamport[src]
		}
		lamport[dst]++
		det := event.Determinant{
			ID:      event.EventID{Creator: event.Rank(dst), Clock: clock[dst]},
			Sender:  event.Rank(src),
			SendSeq: sendSeq[src],
			Parent:  lastEvt[src],
			Lamport: lamport[dst],
		}
		addOps := rs[dst].AddLocal(det)
		lastEvt[dst] = det.ID
		fmt.Fprintf(h, "merge=%d add=%d held=%d/%d\n", mergeOps, addOps, rs[src].Held(), rs[dst].Held())

		// Periodic Event Logger acknowledgment over a random prefix.
		if m%13 == 12 {
			vec := sparsevec.New(np)
			for c := 0; c < np; c++ {
				if clock[c] == 0 {
					continue
				}
				stable[c] += uint64(r.Int63n(int64(clock[c] - stable[c] + 1)))
				vec.SetMax(c, stable[c])
			}
			for i := range rs {
				fmt.Fprintf(h, "stable[%d]=%d\n", i, rs[i].Stable(vec))
			}
		}
	}
	for i := range rs {
		fmt.Fprintf(h, "final held[%d]=%d\n", i, rs[i].Held())
	}
	return h.Sum64()
}
