// Package netmodel models a switched Fast-Ethernet LAN for the simulator.
//
// The model is deliberately simple — a LogGP-style cost model with link
// contention — because the phenomena the reproduction needs are all at the
// message level:
//
//   - per-message one-way latency (propagation + switch + one-frame
//     store-and-forward, folded into a single constant),
//   - serialization time proportional to on-wire bytes (payload plus
//     per-MTU framing overhead), which is what piggybacked causality bytes
//     consume,
//   - transmit-link and receive-link occupancy, so concurrent senders to one
//     destination serialize (Event Logger saturation, recovery fan-in),
//   - optional half-duplex mode, where a node's single medium is shared by
//     transmit and receive (the paper notes MPICH-P4 cannot exploit
//     full-duplex links while the Vdaemon can).
//
// Software costs (system calls, pipe crossings, memory copies) are *not*
// modeled here; they belong to the protocol stacks in internal/daemon, so
// that one wire model serves raw TCP, MPICH-P4 and MPICH-V alike.
package netmodel

import (
	"fmt"

	"mpichv/internal/sim"
)

// The wire is the paper's one testbed: 100 Mbit/s switched Fast Ethernet.
const (
	// Latency is the one-way zero-byte delivery time: propagation, switch
	// transit and the store-and-forward of the first frame.
	Latency = 51 * sim.Microsecond
	// BandwidthBps is the link signalling rate in bits per second.
	BandwidthBps = 100_000_000
	// MTU is the maximum payload carried per frame.
	MTU = 1460
	// FrameOverhead is the non-payload bytes per frame (Ethernet framing,
	// preamble, inter-frame gap, IP and TCP headers).
	FrameOverhead = 78
)

// Config describes what varies between networks on that wire.
type Config struct {
	// FullDuplex selects whether a node can transmit and receive at the
	// same time.
	FullDuplex bool
}

// FastEthernet returns the full-duplex configuration of the paper's
// 32-node cluster (for MPICH-P4, which cannot exploit duplex links,
// cluster.New turns FullDuplex off).
func FastEthernet() Config { return Config{FullDuplex: true} }

// Delivery is one message arriving at an endpoint.
type Delivery struct {
	Src     int
	Bytes   int
	Payload any
}

// Network is a set of endpoints joined by one switch.
type Network struct {
	k          *sim.Kernel
	fullDuplex bool
	eps        []*Endpoint

	// links is the per-ordered-pair fabric (see fabric.go). It stays nil —
	// and costs one nil check per send — until a link is first mutated, so
	// the homogeneous topology keeps the uniform model's exact arithmetic.
	links map[int]*Link

	// freeDeliveries recycles delivery events (and their pre-bound kernel
	// closures) so that Send allocates nothing per message in steady state.
	// The network belongs to exactly one single-threaded kernel, so a plain
	// free list suffices.
	freeDeliveries []*deliveryEvent
	// flightHead chains the delivery events currently between send and
	// arrival (see RangeInFlight).
	flightHead *deliveryEvent

	// HeldDeliveries counts deliveries accepted onto a down link (held for
	// heal); ReleasedDeliveries counts the held ones a heal released.
	HeldDeliveries     int64
	ReleasedDeliveries int64
}

// deliveryEvent carries one in-flight message through the kernel queue. The
// fire closure is built once per pooled object; it hands the delivery to the
// destination endpoint and returns itself to the network's free list. While
// in flight the event sits on the network's intrusive doubly-linked list,
// so diagnostics can see traffic between send and arrival without any
// per-message allocation.
type deliveryEvent struct {
	to         *Endpoint
	d          Delivery
	fire       func()
	prev, next *deliveryEvent
}

// newDelivery returns a delivery event for d, recycled when possible.
//
//mpichv:amortized free-list refill: an event and its fire closure are built once per slot and recycled forever after
func (n *Network) newDelivery(to *Endpoint, d Delivery) *deliveryEvent {
	var ev *deliveryEvent
	if k := len(n.freeDeliveries); k > 0 {
		ev = n.freeDeliveries[k-1]
		n.freeDeliveries = n.freeDeliveries[:k-1]
		ev.to, ev.d = to, d
	} else {
		ev = &deliveryEvent{to: to, d: d}
		ev.fire = func() {
			to, d := ev.to, ev.d
			ev.to, ev.d = nil, Delivery{}
			n.unlinkFlight(ev)
			n.freeDeliveries = append(n.freeDeliveries, ev)
			to.deliver(d)
		}
	}
	ev.prev, ev.next = nil, n.flightHead
	if n.flightHead != nil {
		n.flightHead.prev = ev
	}
	n.flightHead = ev
	return ev
}

func (n *Network) unlinkFlight(ev *deliveryEvent) {
	if ev.prev != nil {
		ev.prev.next = ev.next
	} else {
		n.flightHead = ev.next
	}
	if ev.next != nil {
		ev.next.prev = ev.prev
	}
	ev.prev, ev.next = nil, nil
}

// RangeInFlight calls fn on every message accepted for transmission but
// not yet delivered (most recently sent first), stopping early when fn
// returns false. It is a pure read: recovery diagnostics use it to see
// piggyback copies that exist only on the wire.
func (n *Network) RangeInFlight(fn func(Delivery) bool) {
	for ev := n.flightHead; ev != nil; ev = ev.next {
		if !fn(ev.d) {
			return
		}
	}
}

// Endpoint is one attachment point (one node's NIC).
type Endpoint struct {
	net *Network
	id  int

	txFree sim.Time // transmit link busy until
	rxFree sim.Time // receive link (half-duplex: the one medium) busy until

	// Inbox receives deliveries when no handler is set.
	Inbox *sim.Mailbox[Delivery]
	// handler, when non-nil, is invoked in event context instead of
	// enqueueing to Inbox.
	handler func(Delivery)
}

// New builds a network of n endpoints over kernel k.
func New(k *sim.Kernel, cfg Config, n int) *Network {
	net := &Network{k: k, fullDuplex: cfg.FullDuplex}
	for i := 0; i < n; i++ {
		net.eps = append(net.eps, &Endpoint{
			net:   net,
			id:    i,
			Inbox: sim.NewMailbox[Delivery](k),
		})
	}
	return net
}

// Size returns the number of endpoints.
func (n *Network) Size() int { return len(n.eps) }

// Endpoint returns endpoint i.
//
//mpichv:amortized cold abort: it formats only on the out-of-range panic
func (n *Network) Endpoint(i int) *Endpoint {
	if i < 0 || i >= len(n.eps) {
		panic(fmt.Sprintf("netmodel: endpoint %d out of range [0,%d)", i, len(n.eps)))
	}
	return n.eps[i]
}

// WireBytes returns the on-wire size of a b-byte message including framing.
func (n *Network) WireBytes(b int) int64 {
	frames := (b + MTU - 1) / MTU
	if frames == 0 {
		frames = 1
	}
	return int64(b) + int64(frames)*FrameOverhead
}

// SerializationTime returns the time the link is occupied transmitting a
// b-byte message. The per-byte time is folded first (80 ns at 100 Mbit/s),
// so a multi-gigabyte checkpoint image does not overflow the product.
func (n *Network) SerializationTime(b int) sim.Time {
	return sim.Time(n.WireBytes(b) * (8 * int64(sim.Second) / BandwidthBps))
}

// ID returns the endpoint's index in the network.
func (ep *Endpoint) ID() int { return ep.id }

// SetHandler routes future deliveries to fn (in kernel event context)
// instead of the Inbox. Pass nil to restore Inbox delivery.
func (ep *Endpoint) SetHandler(fn func(Delivery)) { ep.handler = fn }

// Send transmits bytes of payload to endpoint dst. It never blocks the
// caller (DMA semantics): link occupancy is accounted in virtual time and
// the delivery event fires when the last byte clears the receiver's link.
// Software costs on either side must be charged by the caller.
func (ep *Endpoint) Send(dst int, bytes int, payload any) {
	n := ep.net
	k := n.k
	to := n.Endpoint(dst)

	if dst == ep.id {
		// Loopback: no NIC involvement, a token in-memory latency. A node
		// always reaches itself, whatever the fabric says.
		ev := n.newDelivery(to, Delivery{Src: ep.id, Bytes: bytes, Payload: payload})
		k.After(sim.Microsecond, ev.fire)
		return
	}

	lnk := n.link(ep.id, dst)
	ser, lat := lnk.cost(n.SerializationTime(bytes), Latency)

	// Transmit side: wait for our transmit link before the first bit
	// departs. On a half-duplex medium rxFree is the one medium's
	// busy-until: a transmit waits for it and then holds it, so receives
	// queue behind the transmit (see arrive) and the next transmit waits
	// for any receive.
	depart := max(k.Now(), ep.txFree)
	if !n.fullDuplex {
		depart = max(depart, ep.rxFree)
		ep.rxFree = depart + ser
	}
	ep.txFree = depart + ser

	ev := n.newDelivery(to, Delivery{Src: ep.id, Bytes: bytes, Payload: payload})

	if lnk != nil && lnk.state == LinkDown {
		// The frames cleared the sender's NIC and died at the severed
		// switch port: the transmit occupancy above is real, but nothing
		// reaches the receiver until the link heals. The delivery stays on
		// the in-flight list so diagnostics still see it.
		lnk.held = append(lnk.held, ev)
		n.HeldDeliveries++
		return
	}
	n.arrive(ev, depart+lat, ser)
}

// arrive schedules ev's delivery for a message whose first frame reaches
// the destination's receive link at the given instant and occupies it for
// ser. The switch forwards frames as they arrive, so a single stream sees
// ser + latency end to end; competing senders queue on the destination
// link.
func (n *Network) arrive(ev *deliveryEvent, at, ser sim.Time) {
	to := ev.to
	to.rxFree = max(at, to.rxFree) + ser
	n.k.At(to.rxFree, ev.fire)
}

func (ep *Endpoint) deliver(d Delivery) {
	if ep.handler != nil {
		ep.handler(d)
		return
	}
	ep.Inbox.Put(d)
}
