package vproto

import (
	"testing"

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
		LoggedPayloads: []Message{{Bytes: 200}, {Bytes: 300}},
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
