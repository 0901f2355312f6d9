package checkpoint

import (
	"testing"

	"mpichv/internal/event"
	"mpichv/internal/netmodel"
	"mpichv/internal/sim"
	"mpichv/internal/vproto"
)

func setup(t *testing.T, np int) (*sim.Kernel, *netmodel.Network, *Server) {
	t.Helper()
	k := sim.NewKernel(1)
	net := netmodel.New(k, netmodel.FastEthernet(), np+2)
	s := NewServer(k, net, np, np, DefaultServerConfig())
	return k, net, s
}

func image(rank event.Rank, epoch int, step int64) *vproto.CheckpointImage {
	return &vproto.CheckpointImage{
		Rank: rank, Epoch: epoch, Step: step, AppBytes: 1 << 10,
	}
}

func TestStoreAckAndFetch(t *testing.T) {
	k, net, s := setup(t, 2)
	var acked, fetched *vproto.Packet
	net.Endpoint(0).SetHandler(func(d netmodel.Delivery) {
		pkt := d.Payload.(*vproto.Packet)
		switch pkt.Kind {
		case vproto.PktCkptAck:
			acked = pkt
		case vproto.PktCkptImage:
			fetched = pkt
		}
	})
	im := image(0, 1, 42)
	k.At(0, func() {
		net.Endpoint(0).Send(2, int(im.Bytes()), &vproto.Packet{Kind: vproto.PktCkptStore, From: 0, Image: im})
	})
	k.At(sim.Second, func() {
		net.Endpoint(0).Send(2, 32, &vproto.Packet{Kind: vproto.PktCkptFetch, From: 0, Rank: 0, Epoch: vproto.FetchLatest})
	})
	k.Run()
	if acked == nil || acked.Rank != 0 || acked.Epoch != 1 {
		t.Fatalf("ack = %+v", acked)
	}
	if fetched == nil || fetched.Image == nil || fetched.Image.Step != 42 {
		t.Fatalf("fetch = %+v", fetched)
	}
	if s.Stores != 1 || s.Fetches != 1 {
		t.Fatalf("counters: stores=%d fetches=%d", s.Stores, s.Fetches)
	}
}

func TestFetchMissingImageReturnsNil(t *testing.T) {
	k, net, _ := setup(t, 2)
	var fetched *vproto.Packet
	net.Endpoint(1).SetHandler(func(d netmodel.Delivery) {
		fetched = d.Payload.(*vproto.Packet)
	})
	k.At(0, func() {
		net.Endpoint(1).Send(2, 32, &vproto.Packet{Kind: vproto.PktCkptFetch, From: 1, Rank: 1, Epoch: vproto.FetchLatest})
	})
	k.Run()
	if fetched == nil || fetched.Image != nil {
		t.Fatalf("fetch of missing image = %+v", fetched)
	}
}

func TestLatestImageWins(t *testing.T) {
	k, net, _ := setup(t, 2)
	var fetched *vproto.Packet
	net.Endpoint(0).SetHandler(func(d netmodel.Delivery) {
		pkt := d.Payload.(*vproto.Packet)
		if pkt.Kind == vproto.PktCkptImage {
			fetched = pkt
		}
	})
	k.At(0, func() {
		net.Endpoint(0).Send(2, 64, &vproto.Packet{Kind: vproto.PktCkptStore, From: 0, Image: image(0, 1, 10)})
	})
	k.At(sim.Second, func() {
		net.Endpoint(0).Send(2, 64, &vproto.Packet{Kind: vproto.PktCkptStore, From: 0, Image: image(0, 2, 20)})
	})
	k.At(2*sim.Second, func() {
		net.Endpoint(0).Send(2, 32, &vproto.Packet{Kind: vproto.PktCkptFetch, From: 0, Rank: 0, Epoch: vproto.FetchLatest})
	})
	k.Run()
	if fetched.Image.Step != 20 {
		t.Fatalf("latest fetch returned step %d, want 20", fetched.Image.Step)
	}
}

func TestCompleteWaveSemantics(t *testing.T) {
	k, net, s := setup(t, 2)
	var fetched *vproto.Packet
	net.Endpoint(0).SetHandler(func(d netmodel.Delivery) {
		pkt := d.Payload.(*vproto.Packet)
		if pkt.Kind == vproto.PktCkptImage {
			fetched = pkt
		}
	})
	// Wave 1 complete (both ranks); wave 2 only rank 0.
	k.At(0, func() {
		net.Endpoint(0).Send(2, 64, &vproto.Packet{Kind: vproto.PktCkptStore, From: 0, Image: image(0, 1, 10)})
		net.Endpoint(1).Send(2, 64, &vproto.Packet{Kind: vproto.PktCkptStore, From: 1, Image: image(1, 1, 11)})
	})
	k.At(sim.Second, func() {
		net.Endpoint(0).Send(2, 64, &vproto.Packet{Kind: vproto.PktCkptStore, From: 0, Image: image(0, 2, 20)})
	})
	k.At(2*sim.Second, func() {
		net.Endpoint(0).Send(2, 32, &vproto.Packet{Kind: vproto.PktCkptFetch, From: 0, Rank: 0, Epoch: vproto.FetchLatestWave})
	})
	k.Run()
	if s.CompleteEpoch() != 1 {
		t.Fatalf("CompleteEpoch = %d, want 1", s.CompleteEpoch())
	}
	if fetched.Image == nil || fetched.Image.Step != 10 {
		t.Fatalf("consistent fetch = %+v, want wave-1 image (step 10)", fetched.Image)
	}
}

func TestEpochPruning(t *testing.T) {
	k, net, s := setup(t, 1)
	net.Endpoint(0).SetHandler(func(netmodel.Delivery) {})
	k.At(0, func() {
		for e := 1; e <= 20; e++ {
			net.Endpoint(0).Send(1, 64, &vproto.Packet{Kind: vproto.PktCkptStore, From: 0, Image: image(0, e, int64(e))})
		}
	})
	k.Run()
	if len(s.byEpoch) > 6 {
		t.Fatalf("byEpoch retains %d epochs; pruning failed", len(s.byEpoch))
	}
	if !s.HasImage(0) {
		t.Fatal("latest image lost")
	}
}

func TestSchedulerRoundRobin(t *testing.T) {
	k := sim.NewKernel(1)
	net := netmodel.New(k, netmodel.FastEthernet(), 4)
	var got []int
	for i := 0; i < 3; i++ {
		i := i
		net.Endpoint(i).SetHandler(func(d netmodel.Delivery) {
			pkt := d.Payload.(*vproto.Packet)
			if pkt.Kind == vproto.PktCkptRequest {
				got = append(got, i)
			}
		})
	}
	NewScheduler(k, net, 3, 3, PolicyRoundRobin, 10*sim.Millisecond)
	k.RunUntil(65 * sim.Millisecond)
	want := []int{0, 1, 2, 0, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("requests = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("requests = %v, want %v", got, want)
		}
	}
}

func TestSchedulerCoordinatedBroadcasts(t *testing.T) {
	k := sim.NewKernel(1)
	net := netmodel.New(k, netmodel.FastEthernet(), 4)
	count := make([]int, 3)
	epochs := make(map[int]bool)
	for i := 0; i < 3; i++ {
		i := i
		net.Endpoint(i).SetHandler(func(d netmodel.Delivery) {
			pkt := d.Payload.(*vproto.Packet)
			count[i]++
			epochs[pkt.Epoch] = true
		})
	}
	NewScheduler(k, net, 3, 3, PolicyCoordinated, 10*sim.Millisecond)
	k.RunUntil(25 * sim.Millisecond)
	for i, c := range count {
		if c != 2 {
			t.Fatalf("rank %d got %d requests, want 2 waves", i, c)
		}
	}
	if !epochs[1] || !epochs[2] {
		t.Fatalf("epochs seen = %v", epochs)
	}
}

func TestSchedulerNoneIsSilent(t *testing.T) {
	k := sim.NewKernel(1)
	net := netmodel.New(k, netmodel.FastEthernet(), 2)
	s := NewScheduler(k, net, 1, 1, PolicyNone, 10*sim.Millisecond)
	k.RunUntil(100 * sim.Millisecond)
	if s.epoch != 0 {
		t.Fatalf("PolicyNone issued %d waves", s.epoch)
	}
}

// TestSchedulerRejectsUnknownPolicyAtConstruction: an invalid policy used
// to pass NewScheduler and only panic at the first wave, deep inside the
// simulation loop.
func TestSchedulerRejectsUnknownPolicyAtConstruction(t *testing.T) {
	k := sim.NewKernel(1)
	net := netmodel.New(k, netmodel.FastEthernet(), 2)
	defer func() {
		if recover() == nil {
			t.Fatal("NewScheduler accepted an unknown policy")
		}
	}()
	NewScheduler(k, net, 1, 1, Policy("bogus"), 10*sim.Millisecond)
}

func TestSchedulerWaveObservers(t *testing.T) {
	k := sim.NewKernel(1)
	net := netmodel.New(k, netmodel.FastEthernet(), 2)
	net.Endpoint(0).SetHandler(func(netmodel.Delivery) {})
	s := NewScheduler(k, net, 1, 1, PolicyRoundRobin, 10*sim.Millisecond)
	var epochs []int
	s.ObserveWaves(func(e int) { epochs = append(epochs, e) })
	k.RunUntil(35 * sim.Millisecond)
	if len(epochs) != 3 || epochs[0] != 1 || epochs[2] != 3 {
		t.Fatalf("wave observer saw %v, want [1 2 3]", epochs)
	}
}

// TestSchedulerWaveRunsBehindDueEvents: a wave runs behind the events
// already due at its instant, so what its observers write lands after
// them. An event scheduled for the wave's instant after NewScheduler runs
// first, although the scheduler's timer was armed before it.
func TestSchedulerWaveRunsBehindDueEvents(t *testing.T) {
	k := sim.NewKernel(1)
	net := netmodel.New(k, netmodel.FastEthernet(), 2)
	net.Endpoint(0).SetHandler(func(netmodel.Delivery) {})
	s := NewScheduler(k, net, 1, 1, PolicyRoundRobin, 10*sim.Millisecond)
	var order []string
	s.ObserveWaves(func(int) { order = append(order, "wave") })
	k.At(10*sim.Millisecond, func() { order = append(order, "event") })
	k.RunUntil(15 * sim.Millisecond)
	if len(order) != 2 || order[0] != "event" || order[1] != "wave" {
		t.Fatalf("order = %v, want [event wave]", order)
	}
}

// TestServerSuspendDelaysService: requests arriving during an outage are
// answered only after it ends.
func TestServerSuspendDelaysService(t *testing.T) {
	k, net, s := setup(t, 2)
	var ackedAt sim.Time
	net.Endpoint(0).SetHandler(func(d netmodel.Delivery) {
		pkt := d.Payload.(*vproto.Packet)
		if pkt.Kind == vproto.PktCkptAck {
			ackedAt = k.Now()
		}
	})
	k.At(0, func() { s.Suspend(50 * sim.Millisecond) })
	im := image(0, 1, 1)
	k.At(sim.Millisecond, func() {
		net.Endpoint(0).Send(2, int(im.Bytes()), &vproto.Packet{Kind: vproto.PktCkptStore, From: 0, Image: im})
	})
	k.Run()
	if ackedAt < 50*sim.Millisecond {
		t.Fatalf("store acked at %v, inside the outage window", ackedAt)
	}
}
