package causal

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"mpichv/internal/causal/sparsevec"
	"mpichv/internal/event"
)

// scriptDigests are scriptDigest's values at seed 42, recorded when
// sparsevec still kept two forms (a sorted run list and a dense array) and
// both produced these exact digests.
var scriptDigests = []struct {
	reducer string
	np      int
	digest  uint64
}{
	{"vcausal", 4, 0xdd78f5b5a20bcae6},
	{"vcausal", 16, 0x2a485f0f59e3f4d},
	{"vcausal", 64, 0x7c4121f379d2a12a},
	{"vcausal", 257, 0xd0915bfbcace1dc7},
	{"manetho", 4, 0xcef434532cceddbd},
	{"manetho", 16, 0x20f4c54acbb563c3},
	{"manetho", 64, 0x39ed903c60fd0dc3},
	{"manetho", 257, 0xda1a373e4835e6be},
	{"logon", 4, 0xa1b312eb4044351c},
	{"logon", 16, 0x7c2952c631c6a113},
	{"logon", 64, 0xba4f799651d6b07},
	{"logon", 257, 0xd8282e03aeec3dac},
}

// TestReducerScriptDigests pins every reducer's observable behaviour: the
// same random AddLocal/Merge/Stable/AppendPiggybackFor script must produce
// the piggyback sets (content and order), the op counts — the virtual-CPU
// cost model — and the Held() values recorded in scriptDigests, at world
// sizes from the paper's to NP 257. Vcausal never crosses the store as a
// graph, so its run must not carve a single clock slot.
func TestReducerScriptDigests(t *testing.T) {
	for _, want := range scriptDigests {
		msgs := 300
		if want.np >= 64 {
			msgs = 150 // keep the large worlds affordable
		}
		got, rs := scriptDigest(want.reducer, want.np, msgs, 42)
		if got != want.digest {
			t.Errorf("%s np=%d: digest %#x, want %#x", want.reducer, want.np, got, want.digest)
		}
		for i, r := range rs {
			if v, ok := r.(*Vcausal); ok && v.slots != 0 {
				t.Errorf("vcausal np=%d: rank %d carved %d clock slots, want 0", want.np, i, v.slots)
			}
		}
	}
}

// scriptDigest runs one scripted random exchange and folds every observable
// output — piggyback event IDs in emission order, op counts, Held() — into
// one hash. It also returns the reducers the script drove.
func scriptDigest(name string, np, msgs int, seed int64) (uint64, []Reducer) {
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
	return h.Sum64(), rs
}
