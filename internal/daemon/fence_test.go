package daemon

import (
	"testing"

	"mpichv/internal/event"
	"mpichv/internal/netmodel"
	"mpichv/internal/sim"
	"mpichv/internal/vproto"
)

// TestFenceDropsStaleIncarnationPackets: once a peer's replacement
// incarnation is announced, application packets from the stale incarnation
// are discarded before touching the sequence trackers, while current-epoch
// packets flow.
func TestFenceDropsStaleIncarnationPackets(t *testing.T) {
	k, a, b := twoNodes(t)
	_ = a
	deliver := func(inc int, seq uint64) {
		m := &vproto.Message{Src: 0, Dst: 1, Tag: 1, Bytes: 10, SendSeq: seq, Inc: inc}
		pkt := vproto.GetPacket()
		pkt.Kind = vproto.PktApp
		pkt.App = m
		b.net.Endpoint(0).Send(1, 10, pkt)
	}
	var got []uint64
	k.Spawn("b", func(p *sim.Proc) {
		b.Bind(p)
		for i := 0; i < 2; i++ {
			got = append(got, b.Recv(0, 1).SendSeq)
		}
	})
	k.At(0, func() {
		b.FenceIncarnation(0, 1)
		deliver(0, 1) // stale incarnation: fenced
		deliver(1, 1) // replacement re-sends seq 1 with its own epoch
		deliver(1, 2)
	})
	k.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("delivered seqs %v, want [1 2] from the replacement only", got)
	}
	if b.Stats().FencedStaleMsgs != 1 {
		t.Fatalf("FencedStaleMsgs=%d, want 1", b.Stats().FencedStaleMsgs)
	}
	// The fenced packet must not have advanced the tracker: seq 1 arrived
	// again from the replacement and was consumed normally.
}

// TestReportDeterminantIDConflictHaltsAndClassifies: the conflict form of
// DeterminantLoss reaches the handler with the creator as victim and the
// reporter as detector, and the reporting incarnation halts.
func TestReportDeterminantIDConflictHaltsAndClassifies(t *testing.T) {
	k, a, _ := twoNodes(t)
	var got DeterminantLoss
	a.OnDeterminantLoss = func(dl DeterminantLoss) {
		got = dl
		k.Stop()
	}
	reached := false
	k.Spawn("a", func(p *sim.Proc) {
		a.Bind(p)
		a.ReportDeterminantIDConflict(event.Determinant{ID: event.EventID{Creator: 1, Clock: 9}, Sender: 0, SendSeq: 4})
		reached = true // must be unreachable: the incarnation halts
	})
	k.Run()
	if reached {
		t.Fatal("incarnation kept running after reporting a conflict")
	}
	if !got.Conflict || got.Victim != 1 || got.Detector != 0 || got.Lost != 1 {
		t.Fatalf("conflict diagnostics %+v", got)
	}
	if got.MissingFrom != 9 || got.MissingTo != 9 {
		t.Fatalf("conflict clock range [%d,%d], want [9,9]", got.MissingFrom, got.MissingTo)
	}
}

// replayWorld builds a 2-endpoint world where node 0 holds logged payloads
// for rank 1 and endpoint 1 records raw delivery times.
func replayWorld(t *testing.T, entries int) (*sim.Kernel, *Node, *[]sim.Time) {
	t.Helper()
	k := sim.NewKernel(1)
	net := netmodel.New(k, netmodel.FastEthernet(), 2)
	a := NewNode(k, net, 0, 2, Vdaemon(), &nullProto{})
	for s := 1; s <= entries; s++ {
		a.Log.Append(vproto.Message{Src: 0, Dst: 1, Tag: 1, Bytes: 512, SendSeq: uint64(s)})
	}
	times := &[]sim.Time{}
	net.Endpoint(1).SetHandler(func(d netmodel.Delivery) {
		*times = append(*times, k.Now())
		vproto.PutPacket(d.Payload.(*vproto.Packet))
	})
	return k, a, times
}

// TestReplayPreservesSequentialTiming: replay emits every logged payload
// after the preceding messages' cumulative CPU cost, and blocks the serving
// process for the set's total CPU time.
func TestReplayPreservesSequentialTiming(t *testing.T) {
	const entries = 16
	k, a, times := replayWorld(t, entries)
	var served sim.Time
	k.Spawn("a", func(p *sim.Proc) {
		a.Bind(p)
		a.replayLogged(1, 0)
		served = k.Now()
	})
	k.Run()
	if len(*times) != entries {
		t.Fatalf("delivered %d, want %d", len(*times), entries)
	}
	m := vproto.Message{Src: 0, Dst: 1, Bytes: 512}
	perMsg := a.transmitCPU(&m)
	if want := sim.Time(entries) * perMsg; served != want {
		t.Fatalf("serving process resumed at %v, want %v (total CPU of the set)", served, want)
	}
	// Each message departs after its cumulative CPU charge; the wire adds
	// latency + serialization, and the receive link queues back-to-back
	// departures.
	net := a.Network()
	ser := net.SerializationTime(512 + Vdaemon().HeaderBytes)
	prev := sim.Time(0)
	for i, at := range *times {
		depart := sim.Time(i+1) * perMsg
		want := depart + netmodel.Latency + ser
		if want < prev+ser {
			want = prev + ser
		}
		if at != want {
			t.Fatalf("delivery %d at %v, want %v", i, at, want)
		}
		prev = at
	}
}

// TestReplayAbortsWhenServerDies: a kill landing mid-replay unwinds the
// serving process inside a payload's CPU charge — the dead incarnation
// emits nothing further.
func TestReplayAbortsWhenServerDies(t *testing.T) {
	const entries = 16
	k, a, times := replayWorld(t, entries)
	var proc *sim.Proc
	k.Spawn("a", func(p *sim.Proc) {
		a.Bind(p)
		proc = p
		a.replayLogged(1, 0)
	})
	m := vproto.Message{Src: 0, Dst: 1, Bytes: 512}
	perMsg := a.transmitCPU(&m)
	killAt := 5*perMsg + perMsg/2 // between emissions 5 and 6
	k.At(killAt, func() { proc.Kill() })
	k.Run()
	if len(*times) != 5 {
		t.Fatalf("dead server emitted %d messages, want 5 (replay must abort)", len(*times))
	}
}

// TestReplayDepartsLikeSend pins the one departure rule of a payload: its
// CPU charge is a Sleep, so an event another process schedules for the
// instant the payload is due to leave, after the charge began, runs before
// the payload is on the wire. A fresh Send and a replayed payload obey it
// alike.
func TestReplayDepartsLikeSend(t *testing.T) {
	for _, tc := range []struct {
		name string
		send func(a *Node)
	}{
		{"send", func(a *Node) { a.Send(1, 1, 512) }},
		{"replay", func(a *Node) { a.replayLogged(1, 0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k, a, _ := replayWorld(t, 4)
			m := vproto.Message{Src: 0, Dst: 1, Bytes: 512}
			due := a.transmitCPU(&m)
			k.Spawn("a", func(p *sim.Proc) {
				a.Bind(p)
				tc.send(a)
			})
			sent := int64(-1)
			k.Spawn("other", func(*sim.Proc) {
				k.At(due, func() { sent = a.Stats().AppMsgsSent })
			})
			k.Run()
			if sent != 0 {
				t.Fatalf("an event due with the first payload saw %d messages sent, want 0", sent)
			}
		})
	}
}
