package netmodel

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"mpichv/internal/sim"
)

// goldenScript drives one network through every wire-model branch and
// returns its delivery log, one "section t src dst bytes" line per
// delivery in delivery order. The sections cover a healthy link (with
// sender serialization, receiver contention and loopback), a degraded link
// with jitter and its clear, a downed link that heals into a still-degraded
// state and then heals again, and competing senders queued on one receiver
// while a partition heals.
func goldenScript(fullDuplex bool) string {
	cfg := FastEthernet()
	cfg.FullDuplex = fullDuplex
	k := sim.NewKernel(1)
	n := New(k, cfg, 6)
	var b strings.Builder
	section := "healthy"
	for i := range n.Size() {
		n.Endpoint(i).SetHandler(func(d Delivery) {
			fmt.Fprintf(&b, "%s %d %d %d %d\n", section, int64(k.Now()), d.Src, i, d.Bytes)
		})
	}
	at := func(t sim.Time, fn func()) { k.At(t, fn) }
	send := func(src, dst, bytes int) { n.Endpoint(src).Send(dst, bytes, nil) }
	ms := sim.Millisecond

	// Healthy: back-to-back sends from one sender, two senders on one
	// receiver, traffic in both directions, a zero-byte and a loopback send.
	at(0, func() {
		send(0, 1, 100_000)
		send(0, 1, 1)
		send(2, 1, 30_000)
		send(1, 0, 5_000)
		send(3, 3, 64)
		send(4, 5, 0)
	})
	at(3*sim.Microsecond, func() { send(1, 2, 2_920) })
	k.Run()

	// Degraded with jitter: slower serialization backs up the sender,
	// jitter draws from the link's own stream, and other links stay
	// healthy; the window's clear restores the base rates.
	at(k.Now()+ms, func() {
		section = "degraded"
		gen := n.DegradeLink(0, 1, 2.5, 0.25, 40*sim.Microsecond, 7)
		for range 4 {
			send(0, 1, 12_000)
		}
		send(2, 1, 12_000)
		send(1, 0, 700)
		at(k.Now()+2*ms, func() {
			n.ClearDegrade(0, 1, gen)
			send(0, 1, 12_000)
		})
	})
	k.Run()

	// Down, then healed into the degraded state, then healed for good.
	at(k.Now()+ms, func() {
		section = "down-degraded"
		n.DegradeLink(2, 3, 3, 0.5, 25*sim.Microsecond, 11)
		n.DownLink(2, 3)
		send(2, 3, 8_000)
		send(2, 3, 50_000)
		send(3, 2, 1_000)
		t := k.Now()
		at(t+ms, func() {
			n.HealLink(2, 3)
			send(2, 3, 4_000)
		})
		at(t+5*ms, func() {
			n.HealLink(2, 3)
			send(2, 3, 4_000)
		})
	})
	k.Run()

	// Partition {0,1} | {2,3}: cross-group sends to 0 are held while 1 and
	// the unlisted 4 keep 0's receive link busy; the heal releases the held
	// burst behind that queue, in (src, dst) order.
	at(k.Now()+ms, func() {
		section = "partition"
		groups := [][]int{{0, 1}, {2, 3}}
		n.Partition(groups)
		send(3, 0, 20_000)
		send(2, 0, 20_000)
		send(2, 1, 1_500)
		send(0, 3, 900)
		t := k.Now()
		at(t+ms, func() {
			send(1, 0, 200_000)
			send(4, 0, 60_000)
		})
		at(t+ms+500*sim.Microsecond, func() {
			n.HealPartition(groups)
			send(3, 0, 1_000)
		})
	})
	k.Run()
	return b.String()
}

// TestGoldenDeliveryLog holds the wire model to a recorded delivery log
// (time, source, destination, bytes) on full- and half-duplex media, so
// a rewrite of Send or HealLink must reproduce every delivery instant.
func TestGoldenDeliveryLog(t *testing.T) {
	got := "# full-duplex\n" + goldenScript(true) + "# half-duplex\n" + goldenScript(false)
	want, err := os.ReadFile("testdata/deliveries.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("delivery log diverges at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("delivery log has %d lines, want %d", len(gl), len(wl))
	}
}
