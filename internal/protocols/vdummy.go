// Package protocols implements the V-protocol stacks that plug into the
// generic MPICH-V daemon: Vdummy (no fault tolerance — the framework
// baseline), Vcausal (causal message logging parameterized by one of the
// three piggyback reducers), pessimistic sender-based logging and
// Chandy-Lamport coordinated checkpointing.
package protocols

import (
	"mpichv/internal/causal/sparsevec"
	"mpichv/internal/daemon"
	"mpichv/internal/event"
	"mpichv/internal/vproto"
)

// Vdummy is the trivial V-protocol: every hook is a no-op. It measures the
// raw performance of the generic communication layer, equivalent to the
// MPICH-P4 reference implementation running through the Vdaemon.
type Vdummy struct{}

// NewVdummy returns the no-fault-tolerance protocol.
func NewVdummy() *Vdummy { return &Vdummy{} }

// Name implements daemon.Protocol.
func (*Vdummy) Name() string { return "vdummy" }

// PreSend implements daemon.Protocol.
func (*Vdummy) PreSend(*daemon.Node, *vproto.Message) {}

// OnDeliver implements daemon.Protocol.
func (*Vdummy) OnDeliver(*daemon.Node, *vproto.Message) {}

// OnControl implements daemon.Protocol: no checkpointing either, so the
// scheduler's requests are ignored.
func (*Vdummy) OnControl(*daemon.Node, *vproto.Packet) {}

// TakeSnapshot implements daemon.Protocol.
func (*Vdummy) TakeSnapshot(*daemon.Node) {}

// Snapshot implements daemon.Protocol.
func (*Vdummy) Snapshot(*daemon.Node, *vproto.CheckpointImage) {}

// Restore implements daemon.Protocol.
func (*Vdummy) Restore(*daemon.Node, *vproto.CheckpointImage) {}

// Integrate implements daemon.Protocol.
func (*Vdummy) Integrate(*daemon.Node, []event.Determinant, *sparsevec.Vec) {}

// HeldFor implements daemon.Protocol.
func (*Vdummy) HeldFor(event.Rank) []event.Determinant { return nil }

// UsesSenderLog implements daemon.Protocol.
func (*Vdummy) UsesSenderLog() bool { return false }
