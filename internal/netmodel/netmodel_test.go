package netmodel

import (
	"testing"
	"testing/quick"

	"mpichv/internal/sim"
)

func testConfig() Config {
	cfg := FastEthernet()
	return cfg
}

func TestWireBytesFraming(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k, testConfig(), 2)
	cases := []struct {
		payload int
		frames  int
	}{
		{0, 1}, {1, 1}, {1460, 1}, {1461, 2}, {2920, 2}, {1_000_000, 685},
	}
	for _, c := range cases {
		want := int64(c.payload) + int64(c.frames)*78
		if got := n.WireBytes(c.payload); got != want {
			t.Errorf("WireBytes(%d) = %d, want %d", c.payload, got, want)
		}
	}
}

func TestSmallMessageLatency(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k, testConfig(), 2)
	var at sim.Time
	n.Endpoint(1).SetHandler(func(d Delivery) { at = k.Now() })
	k.At(0, func() { n.Endpoint(0).Send(1, 1, nil) })
	k.Run()
	want := n.Config().Latency + n.SerializationTime(1)
	if at != want {
		t.Fatalf("1-byte delivery at %v, want %v", at, want)
	}
	// ~57µs: 51µs base + 79 wire bytes at 100 Mbit/s (6.32µs).
	if at < 55*sim.Microsecond || at > 60*sim.Microsecond {
		t.Fatalf("1-byte latency %v outside Fast-Ethernet envelope", at)
	}
}

func TestLargeMessageBandwidth(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k, testConfig(), 2)
	const bytes = 8 << 20
	var at sim.Time
	n.Endpoint(1).SetHandler(func(d Delivery) { at = k.Now() })
	k.At(0, func() { n.Endpoint(0).Send(1, bytes, nil) })
	k.Run()
	mbps := float64(bytes) * 8 / at.Seconds() / 1e6
	// 100 Mbit/s line rate less ~5% framing overhead.
	if mbps < 90 || mbps > 96 {
		t.Fatalf("8MB transfer achieved %.1f Mbit/s, want ~94.9", mbps)
	}
}

func TestSenderSerializesItsOwnMessages(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k, testConfig(), 3)
	var first, second sim.Time
	n.Endpoint(1).SetHandler(func(d Delivery) { first = k.Now() })
	n.Endpoint(2).SetHandler(func(d Delivery) { second = k.Now() })
	const bytes = 100_000
	k.At(0, func() {
		n.Endpoint(0).Send(1, bytes, nil)
		n.Endpoint(0).Send(2, bytes, nil)
	})
	k.Run()
	ser := n.SerializationTime(bytes)
	if second-first != ser {
		t.Fatalf("second send not delayed by tx serialization: gap %v, want %v", second-first, ser)
	}
}

func TestReceiverLinkContention(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k, testConfig(), 3)
	var times []sim.Time
	n.Endpoint(2).SetHandler(func(d Delivery) { times = append(times, k.Now()) })
	const bytes = 100_000
	k.At(0, func() {
		n.Endpoint(0).Send(2, bytes, nil)
		n.Endpoint(1).Send(2, bytes, nil)
	})
	k.Run()
	if len(times) != 2 {
		t.Fatalf("got %d deliveries, want 2", len(times))
	}
	ser := n.SerializationTime(bytes)
	if times[1]-times[0] != ser {
		t.Fatalf("deliveries to a shared receiver must serialize: gap %v, want %v", times[1]-times[0], ser)
	}
}

func TestHalfDuplexBlocksSendDuringReceive(t *testing.T) {
	cfg := testConfig()
	cfg.FullDuplex = false
	k := sim.NewKernel(1)
	n := New(k, cfg, 2)
	const bytes = 1_000_000

	var reply sim.Time
	n.Endpoint(0).SetHandler(func(d Delivery) { reply = k.Now() })
	n.Endpoint(1).SetHandler(func(d Delivery) {
		// Answer immediately; on half-duplex this transmit must wait for the
		// (already finished) receive, while a concurrent inbound transfer
		// from 0 would block it. Here the key check is the full-duplex
		// comparison below.
		n.Endpoint(1).Send(0, bytes, nil)
	})
	k.At(0, func() {
		n.Endpoint(0).Send(1, bytes, nil)
		n.Endpoint(0).Send(1, bytes, nil) // second transfer keeps 1 receiving
	})
	k.Run()

	// Full-duplex run for comparison.
	k2 := sim.NewKernel(1)
	n2 := New(k2, testConfig(), 2)
	var reply2 sim.Time
	n2.Endpoint(0).SetHandler(func(d Delivery) { reply2 = k2.Now() })
	n2.Endpoint(1).SetHandler(func(d Delivery) { n2.Endpoint(1).Send(0, bytes, nil) })
	k2.At(0, func() {
		n2.Endpoint(0).Send(1, bytes, nil)
		n2.Endpoint(0).Send(1, bytes, nil)
	})
	k2.Run()

	if reply <= reply2 {
		t.Fatalf("half-duplex reply (%v) should be slower than full-duplex (%v)", reply, reply2)
	}
}

func TestLoopbackBypassesNIC(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k, testConfig(), 2)
	var at sim.Time
	n.Endpoint(0).SetHandler(func(d Delivery) { at = k.Now() })
	k.At(0, func() { n.Endpoint(0).Send(0, 1<<20, nil) })
	k.Run()
	if at > 2*sim.Microsecond {
		t.Fatalf("loopback took %v, want ~1µs", at)
	}
}

func TestInboxDeliveryAndStats(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k, testConfig(), 2)
	var got Delivery
	k.Spawn("recv", func(p *sim.Proc) {
		got = n.Endpoint(1).Inbox.Get(p)
	})
	k.At(0, func() { n.Endpoint(0).Send(1, 42, "hello") })
	k.Run()
	if got.Src != 0 || got.Bytes != 42 || got.Payload != any("hello") {
		t.Fatalf("delivery = %+v", got)
	}
}

func TestSerializationTimeMonotonic(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k, testConfig(), 2)
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return n.SerializationTime(x) <= n.SerializationTime(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEndpointOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	k := sim.NewKernel(1)
	n := New(k, testConfig(), 2)
	n.Endpoint(5)
}
