package daemon

import "mpichv/internal/sim"

// StackConfig is the software cost model of one communication stack. The
// wire itself (latency, bandwidth, framing) is modeled by internal/netmodel;
// everything here is CPU time charged on the sending or receiving host —
// which is precisely where the paper's MPICH-P4 vs MPICH-Vdummy latency gap
// lives (the Vdaemon's extra process hop costs pipe crossings and copies).
type StackConfig struct {
	// SendOverhead / RecvOverhead are fixed per-message software costs
	// (system calls, TCP stack, MPI matching).
	SendOverhead sim.Time
	RecvOverhead sim.Time

	// PipeOverhead is the fixed cost of crossing the application↔daemon
	// pipe once per message on each side (MPICH-V only).
	PipeOverhead sim.Time

	// CopyPerByte is the per-byte cost of stack memory copies; PipePerByte
	// is the additional per-byte cost of the app↔daemon pipe crossing.
	CopyPerByte sim.Time
	PipePerByte sim.Time

	// HeaderBytes is the per-message protocol header on the wire.
	HeaderBytes int

	// HalfDuplex models MPICH-P4's inability to exploit full-duplex links
	// (the paper notes Vdummy beats P4 on some NAS kernels for exactly
	// this reason). cluster.New applies it to the wire: a half-duplex
	// stack runs on a network whose nodes cannot transmit and receive at
	// the same time (netmodel.Config.FullDuplex off).
	HalfDuplex bool
}

// RawTCP is the cost model of the NetPIPE raw-TCP baseline.
func RawTCP() StackConfig {
	return StackConfig{
		SendOverhead: 2 * sim.Microsecond,
		RecvOverhead: 2 * sim.Microsecond,
		CopyPerByte:  sim.Time(2), // 2ns/B ≈ one 500 MB/s copy
		HeaderBytes:  0,
	}
}

// P4 is the cost model of the MPICH-P4 reference implementation.
func P4() StackConfig {
	return StackConfig{
		SendOverhead: 19 * sim.Microsecond,
		RecvOverhead: 19 * sim.Microsecond,
		CopyPerByte:  sim.Time(4), // extra MPI-layer copy
		HeaderBytes:  32,
		HalfDuplex:   true,
	}
}

// Vdaemon is the cost model of the MPICH-V generic communication daemon:
// P4-like MPI costs plus the application↔daemon pipe crossing.
func Vdaemon() StackConfig {
	return StackConfig{
		SendOverhead: 19 * sim.Microsecond,
		RecvOverhead: 19 * sim.Microsecond,
		PipeOverhead: 17 * sim.Microsecond,
		CopyPerByte:  sim.Time(4),
		PipePerByte:  sim.Time(2),
		HeaderBytes:  48,
	}
}

// The CPU costs that turn protocol work into virtual time, the mechanism
// of the paper's Figure 8. All fault-tolerant stacks pay the same costs,
// so differences between protocols come only from their op counts and
// byte volumes. The values match the paper's AthlonXP 2800+ nodes: they
// place the causal stacks ~22µs above Vdummy on one-way latency (Figure
// 6a) and let the no-EL penalty emerge from piggyback bytes and op counts.
const (
	// CostPerOp is the duration of one reducer elementary operation.
	CostPerOp = 150 * sim.Nanosecond
	// EventCreate is the fixed cost of creating and recording one local
	// reception determinant.
	EventCreate = 4 * sim.Microsecond
	// PerEventSend / PerEventRecv are the per-determinant serialization
	// and integration costs on the piggyback path (alloc, iovec, copy).
	PerEventSend = 12 * sim.Microsecond
	PerEventRecv = 6 * sim.Microsecond
	// SenderLogOverhead + SenderLogPerByte model the sender-based payload
	// copy every message-logging protocol pays.
	SenderLogOverhead = 3 * sim.Microsecond
	SenderLogPerByte  = 2 * sim.Nanosecond
	// ELShip is the CPU cost of emitting one asynchronous event-log packet.
	ELShip = 2 * sim.Microsecond
)
