package netmodel

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"

	"mpichv/internal/sim"
)

// LinkState classifies the condition of one directed link of the fabric.
type LinkState uint8

// Link states.
const (
	// LinkUp is the healthy default: base latency, base bandwidth.
	LinkUp LinkState = iota
	// LinkDegraded applies the link's latency/bandwidth factors and jitter
	// to every delivery.
	LinkDegraded
	// LinkDown holds deliveries on the in-flight list until the link heals.
	LinkDown
)

// String names the link state.
func (s LinkState) String() string {
	switch s {
	case LinkUp:
		return "up"
	case LinkDegraded:
		return "degraded"
	case LinkDown:
		return "down"
	}
	return fmt.Sprintf("LinkState(%d)", uint8(s))
}

// Link is the mutable per-ordered-pair state of the fabric. The homogeneous
// topology allocates no Link at all — a missing Link is indistinguishable
// from LinkUp with unit factors, so untouched deployments keep the exact
// LogGP arithmetic (and byte-identical tables) of the uniform model.
type Link struct {
	state LinkState

	// latencyFactor scales the one-way latency, serFactor scales the
	// serialization (occupancy) time — serFactor is the reciprocal of a
	// bandwidth multiplier, so a link at a quarter of its bandwidth has
	// serFactor 4. Both are only consulted while state is LinkDegraded.
	latencyFactor float64
	serFactor     float64

	// jitter is the maximum extra per-delivery latency; each delivery on a
	// degraded link draws uniformly from [0, jitter] out of the link's own
	// RNG stream, so jitter perturbs nothing but this link's deliveries.
	jitter sim.Time
	rng    *rand.Rand

	// degradeGen identifies the degrade window that owns the current
	// factors: DegradeLink bumps and returns it, and ClearDegrade with a
	// stale generation is a no-op — a bounded window's expiry cannot
	// clobber a later overlapping window's factors.
	degradeGen int

	// held chains the deliveries accepted while the link is down, in send
	// order; they stay on the network's in-flight list (diagnostics see
	// them) until a heal releases them.
	held []*deliveryEvent
}

// State returns the link's current state.
func (l *Link) State() LinkState { return l.state }

// HeldCount returns the number of deliveries currently held on the downed
// link.
func (l *Link) HeldCount() int { return len(l.held) }

// cost returns the serialization time and one-way latency of one delivery
// on the link, given the healthy values. A degraded link scales both (the
// scaled serialization is also the sender's occupancy, so a slow link
// backs up its sender) and adds a jitter draw from the link's own stream;
// a nil or healthy link returns them unchanged.
func (l *Link) cost(ser, lat sim.Time) (sim.Time, sim.Time) {
	if l == nil || l.state != LinkDegraded {
		return ser, lat
	}
	ser = sim.Time(float64(ser) * l.serFactor)
	lat = sim.Time(float64(lat) * l.latencyFactor)
	if l.jitter > 0 {
		lat += sim.Time(l.rng.Int63n(int64(l.jitter) + 1))
	}
	return ser, lat
}

// link returns the Link for src→dst, or nil while the pair has never been
// touched (the homogeneous fast path: one nil check per send).
func (n *Network) link(src, dst int) *Link {
	if n.links == nil {
		return nil
	}
	return n.links[src*len(n.eps)+dst]
}

// Link returns the directed link src→dst, creating its fabric entry on
// first use. Reading an untouched pair through it reports LinkUp.
func (n *Network) Link(src, dst int) *Link {
	if src < 0 || src >= len(n.eps) || dst < 0 || dst >= len(n.eps) {
		panic(fmt.Sprintf("netmodel: link %d->%d out of range [0,%d)", src, dst, len(n.eps)))
	}
	if n.links == nil {
		n.links = make(map[int]*Link)
	}
	key := src*len(n.eps) + dst
	l := n.links[key]
	if l == nil {
		l = &Link{latencyFactor: 1, serFactor: 1}
		n.links[key] = l
	}
	return l
}

// DownLink takes the directed link src→dst down: deliveries already in
// flight still arrive (their frames cleared the link), but every later send
// is held until the link heals. A held delivery stays on the in-flight
// list, so recovery diagnostics keep seeing its piggyback copies.
func (n *Network) DownLink(src, dst int) {
	l := n.Link(src, dst)
	l.state = LinkDown
}

// DegradeLink puts src→dst in the degraded state: latencyFactor scales the
// one-way latency, bandwidthFactor (in (0,1]) scales the link's effective
// bandwidth, and each delivery adds a jitter term drawn uniformly from
// [0, jitter] out of a deterministic per-link stream derived from
// jitterSeed. Factors ≤ 0 mean "unchanged". Degrading a down link keeps it
// down (the factors apply once it heals into the degraded state). The
// returned generation names this degrade window for ClearDegrade.
func (n *Network) DegradeLink(src, dst int, latencyFactor, bandwidthFactor float64, jitter sim.Time, jitterSeed int64) int {
	l := n.Link(src, dst)
	if l.state != LinkDown {
		l.state = LinkDegraded
	}
	l.latencyFactor = 1
	if latencyFactor > 0 {
		l.latencyFactor = latencyFactor
	}
	l.serFactor = 1
	if bandwidthFactor > 0 {
		l.serFactor = 1 / bandwidthFactor
	}
	l.jitter = jitter
	if jitter > 0 {
		l.rng = linkRNG(jitterSeed, src, dst)
	} else {
		l.rng = nil
	}
	l.degradeGen++
	return l.degradeGen
}

// ClearDegrade ends the degrade window named by gen: the link's factors
// reset and, if it was merely degraded, it returns to the healthy state. A
// downed link stays down — clearing a degrade never un-severs a partition
// — and a stale generation (a later DegradeLink took the link over) is a
// no-op.
func (n *Network) ClearDegrade(src, dst int, gen int) {
	l := n.link(src, dst)
	if l == nil || l.degradeGen != gen {
		return
	}
	l.latencyFactor, l.serFactor, l.jitter, l.rng = 1, 1, 0, nil
	if l.state == LinkDegraded {
		l.state = LinkUp
	}
}

// linkRNG derives the deterministic jitter stream of one directed link, so
// a degraded pair's draws never perturb any other random decision in the
// simulation (nor any other link's).
func linkRNG(seed int64, src, dst int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|link|%d|%d", seed, src, dst)
	s := int64(h.Sum64() & (1<<63 - 1))
	if s == 0 {
		s = 1
	}
	return rand.New(rand.NewSource(s))
}

// HealLink restores src→dst to the healthy state and releases its held
// deliveries through the receive link's normal queueing math, in send
// order, as if they departed at heal time.
func (n *Network) HealLink(src, dst int) {
	l := n.link(src, dst)
	if l == nil {
		return
	}
	if l.state == LinkDown && (l.latencyFactor != 1 || l.serFactor != 1 || l.jitter > 0) {
		// A degrade window was opened on (or survives under) the downed
		// link: healing the outage restores the degraded state, exactly as
		// DegradeLink documents. A further heal, or the degrade window's
		// own clear, resets the factors.
		l.state = LinkDegraded
	} else {
		l.state = LinkUp
		l.latencyFactor, l.serFactor, l.jitter, l.rng = 1, 1, 0, nil
	}
	held := l.held
	l.held = nil
	if len(held) == 0 {
		return
	}
	now := n.k.Now()
	for _, ev := range held {
		// An outage that healed into a still-degraded link releases the
		// held burst at the degraded rates, like every later send.
		ser, lat := l.cost(n.SerializationTime(ev.d.Bytes), n.cfg.Latency)
		n.arrive(ev, now+lat, ser)
	}
	n.ReleasedDeliveries += int64(len(held))
}

// Partition severs every link between endpoints of different groups (both
// directions). Endpoints absent from every group keep all their links —
// the stable servers, which sit on dedicated endpoints, stay reachable
// from every side of a rank-level partition unless explicitly listed.
func (n *Network) Partition(groups [][]int) { crossGroupPairs(groups, n.DownLink) }

// HealPartition restores every cross-group link severed by Partition with
// the same groups, releasing held deliveries in deterministic (src, dst)
// order.
func (n *Network) HealPartition(groups [][]int) { crossGroupPairs(groups, n.HealLink) }

// crossGroupPairs calls fn for every ordered pair of endpoints in different
// groups, in ascending (src, dst) order.
func crossGroupPairs(groups [][]int, fn func(src, dst int)) {
	groupOf := make(map[int]int)
	var members []int
	for gi, g := range groups {
		for _, ep := range g {
			if _, dup := groupOf[ep]; !dup {
				members = append(members, ep)
			}
			groupOf[ep] = gi
		}
	}
	slices.Sort(members)
	for _, a := range members {
		for _, b := range members {
			if a != b && groupOf[a] != groupOf[b] {
				fn(a, b)
			}
		}
	}
}
