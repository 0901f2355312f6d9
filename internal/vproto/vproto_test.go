package vproto

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"mpichv/internal/event"
)

func TestPacketKindStrings(t *testing.T) {
	kinds := []PacketKind{PktApp, PktEventLog, PktEventAck, PktEventQuery,
		PktEventQueryResp, PktDetRequest, PktDetResponse, PktCkptStore,
		PktCkptAck, PktCkptFetch, PktCkptImage, PktCkptGC, PktMarker,
		PktCkptRequest}
	seen := make(map[string]bool)
	for _, k := range kinds {
		s := k.String()
		if s == "?" || s == "" {
			t.Errorf("kind %d has no mnemonic", k)
		}
		if seen[s] {
			t.Errorf("duplicate mnemonic %q", s)
		}
		seen[s] = true
	}
	if got := PacketKind(200).String(); got != "?" {
		t.Errorf("unknown kind = %q, want ?", got)
	}
}

func TestCheckpointImageBytes(t *testing.T) {
	im := &CheckpointImage{
		AppBytes:       1000,
		LoggedPayloads: []LogEntry{{Bytes: 200}, {Bytes: 300}},
		Determinants: []event.Determinant{
			{ID: event.EventID{Creator: 0, Clock: 1}},
			{ID: event.EventID{Creator: 0, Clock: 2}},
		},
	}
	// Empty channel-sequence vectors still cost their run-count headers.
	want := int64(1000 + 500 + event.FactoredSize(im.Determinants) + 64)
	want += im.SendSeqs.EncodedBytes() + im.LastSeqSeen.EncodedBytes()
	if got := im.Bytes(); got != want {
		t.Errorf("Bytes = %d, want %d", got, want)
	}
	// The image size must grow with every component.
	im.AppBytes += 100
	if im.Bytes() != want+100 {
		t.Error("AppBytes not reflected in size")
	}
	want += 100

	// Channel-sequence floors are charged at the interval-coded run size:
	// one run per active channel, regardless of world size.
	im.SendSeqs.Reset(1024)
	im.SendSeqs.SetMax(3, 7)
	im.SendSeqs.SetMax(900, 2)
	if got := im.Bytes(); got != want+2*12 {
		t.Errorf("Bytes with 2 send-seq runs = %d, want %d", got, want+2*12)
	}

	// Recorded in-transit messages charge header plus payload.
	im.ChannelMsgs = []Message{{Bytes: 256}}
	if got := im.Bytes(); got != want+2*12+ChannelMsgHeaderBytes+256 {
		t.Errorf("Bytes with channel msg = %d", got)
	}
}

// TestLogEntry checks the sender log's 32-bit entry: its size, an exact
// round trip of every field replay needs, and a loud failure naming the
// message for each field one past its range.
func TestLogEntry(t *testing.T) {
	if got := unsafe.Sizeof(LogEntry{}); got != 28 {
		t.Errorf("LogEntry is %d bytes, want 28", got)
	}
	for _, m := range []Message{
		{Src: 3, Dst: math.MaxInt32, Tag: math.MaxInt32, Bytes: math.MaxInt32, SendSeq: math.MaxUint32, Lamport: math.MaxUint32,
			SenderLast: event.EventID{Creator: math.MaxInt32, Clock: math.MaxUint32}},
		{Src: 0, Dst: 1, Tag: math.MinInt32, Bytes: 0, SendSeq: 1, SenderLast: event.EventID{Creator: event.NoRank}},
		{Src: 5, Dst: 2, Tag: 7, Bytes: 1 << 20, SendSeq: 9, Lamport: 40, SenderLast: event.EventID{Creator: 2, Clock: 17}},
	} {
		e := NewLogEntry(&m)
		if e.Dst != m.Dst {
			t.Errorf("entry of %+v has Dst %d", m, e.Dst)
		}
		if got := e.Message(m.Src); !reflect.DeepEqual(got, m) {
			t.Errorf("round trip of %+v = %+v", m, got)
		}
	}

	base := Message{Src: 1, Dst: 2, Tag: 3, Bytes: 64, SendSeq: 4, Lamport: 5, SenderLast: event.EventID{Creator: 2, Clock: 6}}
	for _, tc := range []struct {
		field string
		widen func(*Message)
	}{
		{"send seq", func(m *Message) { m.SendSeq = 1 << 32 }},
		{"lamport", func(m *Message) { m.Lamport = 1 << 32 }},
		{"sender-last clock", func(m *Message) { m.SenderLast.Clock = 1 << 32 }},
		{"tag", func(m *Message) { m.Tag = math.MaxInt32 + 1 }},
		{"negative tag", func(m *Message) { m.Tag = math.MinInt32 - 1 }},
		{"bytes", func(m *Message) { m.Bytes = math.MaxInt32 + 1 }},
	} {
		m := base
		tc.widen(&m)
		want := fmt.Sprintf("vproto: message 1->2 seq %d (tag %d, %d bytes, lamport %d, sender-last %v) ", m.SendSeq, m.Tag, m.Bytes, m.Lamport, m.SenderLast)
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, want) {
					t.Errorf("%s one past its range: recovered %q, want a message starting %q", tc.field, msg, want)
				}
			}()
			NewLogEntry(&m)
		}()
	}
}
