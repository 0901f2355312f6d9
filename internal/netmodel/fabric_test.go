package netmodel

import (
	"testing"

	"mpichv/internal/sim"
)

// TestHalfDuplexTxRxExclusion pins the exact tx/rx exclusion timing on a
// half-duplex medium: a transmit issued while the node's single medium is
// still busy receiving departs only when the receive completes.
func TestHalfDuplexTxRxExclusion(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k, Config{FullDuplex: false}, 3)
	const bytes = 100_000
	ser := n.SerializationTime(bytes)

	var reply sim.Time
	n.Endpoint(2).SetHandler(func(d Delivery) { reply = k.Now() })
	n.Endpoint(1).SetHandler(func(d Delivery) {})
	k.At(0, func() { n.Endpoint(0).Send(1, bytes, nil) })
	// While 1 is still receiving (its rx link is busy until Latency+ser),
	// it tries to transmit to 2: the send must wait for its own rx.
	k.At(Latency, func() { n.Endpoint(1).Send(2, bytes, nil) })
	k.Run()

	// Departure = end of 1's receive (Latency+ser), then Latency+ser to 2.
	want := (Latency + ser) + Latency + ser
	if reply != want {
		t.Fatalf("half-duplex transmit delivered at %v, want %v (tx must wait for rx)", reply, want)
	}

	// The same schedule on full-duplex departs at Latency immediately.
	k2 := sim.NewKernel(1)
	n2 := New(k2, FastEthernet(), 3)
	var reply2 sim.Time
	n2.Endpoint(2).SetHandler(func(d Delivery) { reply2 = k2.Now() })
	n2.Endpoint(1).SetHandler(func(d Delivery) {})
	k2.At(0, func() { n2.Endpoint(0).Send(1, bytes, nil) })
	k2.At(Latency, func() { n2.Endpoint(1).Send(2, bytes, nil) })
	k2.Run()
	if want2 := Latency + Latency + ser; reply2 != want2 {
		t.Fatalf("full-duplex transmit delivered at %v, want %v", reply2, want2)
	}
}

// TestDownLinkHoldsUntilHeal: deliveries on a down link are held (visible
// on the in-flight list), then released through the receive link's normal
// queueing on heal — two held messages serialize on the destination link.
func TestDownLinkHoldsUntilHeal(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k, FastEthernet(), 2)
	const bytes = 100_000
	ser := n.SerializationTime(bytes)

	var times []sim.Time
	n.Endpoint(1).SetHandler(func(d Delivery) { times = append(times, k.Now()) })

	n.DownLink(0, 1)
	k.At(0, func() {
		n.Endpoint(0).Send(1, bytes, "a")
		n.Endpoint(0).Send(1, bytes, "b")
	})
	const healAt = 10 * sim.Millisecond
	k.At(healAt, func() {
		// Both deliveries are held and in flight, none delivered.
		if len(times) != 0 {
			t.Fatalf("delivery before heal at %v", times)
		}
		inFlight := 0
		n.RangeInFlight(func(Delivery) bool { inFlight++; return true })
		if inFlight != 2 {
			t.Fatalf("in-flight count %d while held, want 2", inFlight)
		}
		if got := n.Link(0, 1).HeldCount(); got != 2 {
			t.Fatalf("HeldCount %d, want 2", got)
		}
		n.HealLink(0, 1)
	})
	k.Run()

	if len(times) != 2 {
		t.Fatalf("got %d deliveries after heal, want 2", len(times))
	}
	// First release: heal + latency + ser; second queues behind it on the
	// receive link.
	if want := healAt + Latency + ser; times[0] != want {
		t.Fatalf("first release at %v, want %v", times[0], want)
	}
	if times[1]-times[0] != ser {
		t.Fatalf("released deliveries must queue on the rx link: gap %v, want %v", times[1]-times[0], ser)
	}
	if n.HeldDeliveries != 2 || n.ReleasedDeliveries != 2 {
		t.Fatalf("counters held=%d released=%d", n.HeldDeliveries, n.ReleasedDeliveries)
	}
}

// TestHeldDeliveryPoolReuse: delivery events released from a downed link
// return to the pool and are reused across two outages; the in-flight list
// ends empty.
func TestHeldDeliveryPoolReuse(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k, FastEthernet(), 2)
	delivered := 0
	n.Endpoint(1).SetHandler(func(d Delivery) { delivered++ })

	send := func() { n.Endpoint(0).Send(1, 100, nil) }
	for _, at := range []sim.Time{0, 2 * sim.Millisecond} {
		k.At(at, func() {
			n.DownLink(0, 1)
			send()
			send()
		})
		k.At(at+sim.Millisecond, func() { n.HealLink(0, 1) })
	}
	k.At(5*sim.Millisecond, func() { send() }) // healthy reuse of pooled events
	k.Run()

	if delivered != 5 {
		t.Fatalf("delivered %d, want 5 (4 released, 1 direct)", delivered)
	}
	if n.ReleasedDeliveries != 4 || n.HeldDeliveries != 4 {
		t.Fatalf("counters held=%d released=%d", n.HeldDeliveries, n.ReleasedDeliveries)
	}
	inFlight := 0
	n.RangeInFlight(func(Delivery) bool { inFlight++; return true })
	if inFlight != 0 {
		t.Fatalf("in-flight list not empty after all deliveries settled: %d", inFlight)
	}
	if len(n.freeDeliveries) == 0 {
		t.Fatal("no delivery events returned to the pool")
	}
}

// TestDegradedLinkScaling pins the degraded-link arithmetic without
// jitter: latency times its factor, serialization times the reciprocal of
// the bandwidth factor, and only on the degraded pair.
func TestDegradedLinkScaling(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k, FastEthernet(), 3)
	const bytes = 100_000
	ser := n.SerializationTime(bytes)
	lat := Latency

	var slow, normal sim.Time
	n.Endpoint(1).SetHandler(func(d Delivery) { slow = k.Now() })
	n.Endpoint(2).SetHandler(func(d Delivery) { normal = k.Now() })

	n.DegradeLink(0, 1, 4, 0.25, 0, 0)
	k.At(0, func() { n.Endpoint(0).Send(1, bytes, nil) })
	// A separate send on the untouched pair after the degraded one has
	// cleared the tx link (tx occupancy of the degraded send is scaled).
	k.At(sim.Second, func() { n.Endpoint(0).Send(2, bytes, nil) })
	k.Run()

	// A single stream sees scaled serialization + scaled latency end to
	// end, exactly like the base model with factored terms.
	if want := 4*lat + 4*ser; slow != want {
		t.Fatalf("degraded delivery at %v, want %v", slow, want)
	}
	if want := sim.Second + lat + ser; normal != want {
		t.Fatalf("untouched pair delivery at %v, want %v (fabric must stay per-link)", normal, want)
	}
}

// TestHealRestoresPendingDegrade: healing a downed link that carries
// degrade factors lands it in the degraded state (the outage ended, the
// slow link remains); a further heal clears it fully.
func TestHealRestoresPendingDegrade(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k, FastEthernet(), 2)
	n.DegradeLink(0, 1, 4, 0.25, 0, 0)
	n.DownLink(0, 1)
	if got := n.Link(0, 1).State(); got != LinkDown {
		t.Fatalf("state after DownLink = %v", got)
	}
	n.HealLink(0, 1)
	if got := n.Link(0, 1).State(); got != LinkDegraded {
		t.Fatalf("heal of a degraded-then-downed link = %v, want degraded", got)
	}
	var at sim.Time
	n.Endpoint(1).SetHandler(func(d Delivery) { at = k.Now() })
	k.At(0, func() { n.Endpoint(0).Send(1, 100_000, nil) })
	k.Run()
	if want := 4*Latency + 4*n.SerializationTime(100_000); at != want {
		t.Fatalf("post-heal delivery at %v, want degraded timing %v", at, want)
	}
	n.HealLink(0, 1)
	if got := n.Link(0, 1).State(); got != LinkUp {
		t.Fatalf("second heal = %v, want up", got)
	}
}

// TestClearDegradeRespectsOwnershipAndPartitions: a degrade window's
// expiry (ClearDegrade) never un-severs a downed link, and a stale
// generation cannot clobber a newer window's factors.
func TestClearDegradeRespectsOwnershipAndPartitions(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k, FastEthernet(), 2)
	gen1 := n.DegradeLink(0, 1, 4, 0.25, 0, 0)
	n.DownLink(0, 1)
	k.At(0, func() { n.Endpoint(0).Send(1, 100, nil) })
	k.Run()
	n.ClearDegrade(0, 1, gen1)
	if got := n.Link(0, 1).State(); got != LinkDown {
		t.Fatalf("degrade expiry un-severed a downed link: state %v", got)
	}
	if got := n.Link(0, 1).HeldCount(); got != 1 {
		t.Fatalf("degrade expiry released %d held deliveries", 1-got)
	}
	n.HealLink(0, 1)
	if got := n.Link(0, 1).State(); got != LinkUp {
		t.Fatalf("heal after cleared degrade = %v, want up (factors were reset)", got)
	}

	// Overlapping windows: the older window's expiry must not clobber the
	// newer one.
	genA := n.DegradeLink(0, 1, 2, 0.5, 0, 0)
	genB := n.DegradeLink(0, 1, 8, 0.125, 0, 0)
	n.ClearDegrade(0, 1, genA)
	if got := n.Link(0, 1).State(); got != LinkDegraded {
		t.Fatalf("stale expiry cleared the newer degrade window: state %v", got)
	}
	n.ClearDegrade(0, 1, genB)
	if got := n.Link(0, 1).State(); got != LinkUp {
		t.Fatalf("owning expiry did not clear: state %v", got)
	}
}

// TestHeldReleaseUsesDegradedRates: deliveries released onto a link that
// heals into the degraded state cross it at the degraded latency and
// bandwidth, like any later send.
func TestHeldReleaseUsesDegradedRates(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k, FastEthernet(), 2)
	const bytes = 100_000
	var at sim.Time
	n.Endpoint(1).SetHandler(func(d Delivery) { at = k.Now() })
	n.DownLink(0, 1)
	k.At(0, func() { n.Endpoint(0).Send(1, bytes, nil) })
	const healAt = 10 * sim.Millisecond
	k.At(healAt, func() {
		n.DegradeLink(0, 1, 4, 0.25, 0, 0)
		n.HealLink(0, 1)
	})
	k.Run()
	want := healAt + 4*Latency + 4*n.SerializationTime(bytes)
	if at != want {
		t.Fatalf("held delivery released at %v, want degraded-rate %v", at, want)
	}
}

// TestFabricDeterminism: identical jitter seeds give identical delivery
// schedules; different seeds diverge. The jitter stream is per link, so
// other traffic is unaffected either way.
func TestFabricDeterminism(t *testing.T) {
	run := func(seed int64) []sim.Time {
		k := sim.NewKernel(1)
		n := New(k, FastEthernet(), 2)
		var times []sim.Time
		n.Endpoint(1).SetHandler(func(d Delivery) { times = append(times, k.Now()) })
		n.DegradeLink(0, 1, 2, 0.5, 500*sim.Microsecond, seed)
		for i := 0; i < 8; i++ {
			at := sim.Time(i) * 10 * sim.Millisecond
			k.At(at, func() { n.Endpoint(0).Send(1, 1000, nil) })
		}
		k.Run()
		return times
	}
	a, b, c := run(7), run(7), run(8)
	if len(a) != 8 || len(b) != 8 || len(c) != 8 {
		t.Fatalf("delivery counts %d/%d/%d, want 8", len(a), len(b), len(c))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at delivery %d: %v vs %v", i, a[i], b[i])
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different jitter seeds produced identical schedules")
	}
}

// TestPartitionSeversOnlyCrossGroupLinks: intra-group and unlisted
// endpoints keep communicating; cross-group traffic is held and released
// by HealPartition.
func TestPartitionSeversOnlyCrossGroupLinks(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k, FastEthernet(), 5) // 0,1 | 2,3 partitioned; 4 unlisted
	groups := [][]int{{0, 1}, {2, 3}}
	got := make(map[int]int)
	for i := 0; i < 5; i++ {
		i := i
		n.Endpoint(i).SetHandler(func(d Delivery) { got[i]++ })
	}
	n.Partition(groups)
	k.At(0, func() {
		n.Endpoint(0).Send(1, 100, nil) // intra-group: flows
		n.Endpoint(0).Send(2, 100, nil) // cross-group: held
		n.Endpoint(2).Send(0, 100, nil) // cross-group reverse: held
		n.Endpoint(3).Send(4, 100, nil) // to unlisted: flows
		n.Endpoint(4).Send(0, 100, nil) // from unlisted: flows
	})
	k.At(sim.Millisecond, func() {
		if got[1] != 1 || got[4] != 1 || got[0] != 1 {
			t.Fatalf("intra-group/unlisted traffic blocked: %v", got)
		}
		if got[2] != 0 {
			t.Fatal("cross-group traffic leaked through a partition")
		}
		n.HealPartition(groups)
	})
	k.Run()
	if got[2] != 1 || got[0] != 2 {
		t.Fatalf("held cross-group traffic not released on heal: %v", got)
	}
}
