// Package workload provides the benchmark programs of the evaluation:
// a NetPIPE-style ping-pong and communication skeletons of the NAS Parallel
// Benchmarks (BT, SP, CG, LU, FT, MG — classes A and B).
//
// A skeleton reproduces a kernel's communication structure — which ranks
// exchange, how often, how many bytes — and its compute/communicate ratio,
// which is everything the fault-tolerance protocols under study can
// observe. Iteration counts are scaled down from the reference inputs
// (documented per benchmark) with the flop counts scaled identically, so
// reported Mflop/s remain meaningful while simulations stay laptop sized.
package workload

import (
	"fmt"
	"math/bits"
	"slices"

	"mpichv/internal/daemon"
	"mpichv/internal/failure"
	"mpichv/internal/mpi"
	"mpichv/internal/sim"
)

// ComputeRate is the modeled per-process computation speed (flop/s),
// calibrated to the paper's AthlonXP 2800+ nodes.
const ComputeRate = 350e6

// Spec names one benchmark instance.
type Spec struct {
	Bench string // "bt", "sp", "cg", "lu", "ft", "mg", "pingpong"
	Class string // "A" or "B" (ignored for pingpong)
	NP    int
	// IterScale multiplies the iteration count (and the flop count with
	// it); 0 means 1. Fault-injection experiments use it to lengthen runs
	// so that multiple faults land.
	IterScale int
}

func (s Spec) String() string {
	if s.Bench == "pingpong" {
		return fmt.Sprintf("pingpong.%d", s.NP)
	}
	return fmt.Sprintf("%s.%s.%d", s.Bench, s.Class, s.NP)
}

// Instance is a runnable benchmark: one program per rank plus metadata.
type Instance struct {
	Spec
	Programs []failure.Program
	// TotalFlops is the (scaled) operation count, for Mflop/s reporting.
	TotalFlops float64
	// AppStateBytes is each rank's checkpoint image size. The programs
	// read it when they run, so a value set after the build counts.
	AppStateBytes int64
	// Service is the request/response latency collector of a service
	// build (BuildService); nil for batch benchmarks. It holds one run's
	// state, which is why instances are built fresh per cell.
	Service *ServiceStats
}

// Mflops converts a completion time into the NAS figure of merit.
func (in *Instance) Mflops(elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return in.TotalFlops / elapsed.Seconds() / 1e6
}

// Build constructs the named benchmark instance. It panics on an unknown
// benchmark or class and on unsupported process counts — specs are static
// experiment configuration.
func Build(spec Spec) *Instance {
	if spec.Class != "A" && spec.Class != "B" && spec.Bench != "pingpong" {
		panic(fmt.Sprintf("workload: unknown class %q (want A or B)", spec.Class))
	}
	if spec.IterScale == 0 {
		spec.IterScale = 1
	}
	switch spec.Bench {
	case "bt":
		return buildBTSP(spec, btParams(spec.Class, spec.NP))
	case "sp":
		return buildBTSP(spec, spParams(spec.Class, spec.NP))
	case "cg":
		return buildCG(spec)
	case "lu":
		return buildLU(spec)
	case "ft":
		return buildFT(spec)
	case "mg":
		return buildMG(spec)
	case "pingpong":
		panic("workload: use BuildPingPong for the NetPIPE benchmark")
	}
	panic("workload: unknown benchmark " + spec.Bench)
}

// spmd returns an instance of spec in which every rank runs body over its
// own communicator. Each incarnation first sets its node's checkpoint
// image size from the instance: this is the one place a workload sets it.
func spmd(spec Spec, flops float64, stateBytes int64, body func(n *daemon.Node, c *mpi.Comm)) *Instance {
	in := &Instance{Spec: spec, TotalFlops: flops, AppStateBytes: stateBytes}
	run := func(n *daemon.Node) {
		n.AppStateBytes = in.AppStateBytes
		body(n, mpi.NewComm(n))
	}
	in.Programs = slices.Repeat([]failure.Program{run}, spec.NP)
	return in
}

// flopsTime converts a per-process flop count into compute time.
func flopsTime(flops float64) sim.Time {
	return sim.Time(flops / ComputeRate * float64(sim.Second))
}

func isSquare(np int) (side int, ok bool) {
	for s := 1; s*s <= np; s++ {
		if s*s == np {
			return s, true
		}
	}
	return 0, false
}

func isPow2(np int) bool { return np > 0 && np&(np-1) == 0 }

func log2(np int) int { return bits.Len(uint(np)) - 1 }

// --- BT and SP: square process grids, large face exchanges overlapped
// with heavy computation (ADI solvers). Reference: BT class A runs 200
// iterations, SP 400; both are scaled by 1/5.

type btspParams struct {
	iters      int
	faceBytes  int
	totalFlops float64
	stateBytes int64
}

func btParams(class string, np int) btspParams {
	p := btspParams{iters: 40, faceBytes: 640_000 / np, totalFlops: 168.3e9 / 5, stateBytes: 300 << 20}
	if class == "B" {
		p.iters = 40 // 400/10
		p.faceBytes = 2_560_000 / np
		p.totalFlops = 721.5e9 / 10
		p.stateBytes = 1200 << 20
	}
	p.stateBytes /= int64(np)
	return p
}

func spParams(class string, np int) btspParams {
	p := btspParams{iters: 40, faceBytes: 320_000 / np, totalFlops: 102.0e9 / 10, stateBytes: 300 << 20}
	if class == "B" {
		p.iters = 40
		p.faceBytes = 1_280_000 / np
		p.totalFlops = 447.1e9 / 20
		p.stateBytes = 1200 << 20
	}
	p.stateBytes /= int64(np)
	return p
}

func buildBTSP(spec Spec, p btspParams) *Instance {
	side, ok := isSquare(spec.NP)
	if !ok {
		panic(fmt.Sprintf("workload: %s requires a square process count, got %d", spec.Bench, spec.NP))
	}
	p.iters *= spec.IterScale
	p.totalFlops *= float64(spec.IterScale)
	perIter := flopsTime(p.totalFlops / float64(p.iters) / float64(spec.NP))
	return spmd(spec, p.totalFlops, p.stateBytes, func(_ *daemon.Node, c *mpi.Comm) {
		row, col := c.Rank()/side, c.Rank()%side
		east := row*side + (col+1)%side
		west := row*side + (col-1+side)%side
		south := ((row+1)%side)*side + col
		north := ((row-1+side)%side)*side + col
		for it := 0; it < p.iters; it++ {
			c.Compute(perIter)
			// Face exchanges in the three ADI sweeps (modeled as the
			// four torus neighbours; sends are eager so computation
			// overlaps the transfers, as the paper notes for BT).
			for _, nb := range []int{east, west, south, north} {
				c.Send(nb, 10, p.faceBytes)
			}
			for range []int{east, west, south, north} {
				c.Recv(mpi.AnySource, 10)
			}
		}
	})
}

// --- CG: latency-driven point-to-point exchanges on a power-of-two
// process set plus tiny all-reduces. Reference: class A runs 15 outer × 25
// inner iterations (375); scaled to 120.

func buildCG(spec Spec) *Instance {
	if !isPow2(spec.NP) {
		panic("workload: cg requires a power-of-two process count")
	}
	np := spec.NP
	iters := 120 * spec.IterScale
	exchBytes := 112_000 / np
	totalFlops := 1.508e9 * 120 / 375 * float64(spec.IterScale)
	stateBytes := int64(60<<20) / int64(np)
	if spec.Class == "B" {
		exchBytes = 600_000 / np
		totalFlops = 54.9e9 * 120 / 1875 * float64(spec.IterScale)
		stateBytes = int64(400<<20) / int64(np)
	}
	perIter := flopsTime(totalFlops / float64(iters) / float64(np))
	return spmd(spec, totalFlops, stateBytes, func(_ *daemon.Node, c *mpi.Comm) {
		for it := 0; it < iters; it++ {
			c.Compute(perIter)
			// Transpose exchanges across the two halves of the proc row.
			if np > 1 {
				c.Sendrecv(c.Rank()^1, exchBytes, c.Rank()^1, 20)
				if np >= 4 {
					p := c.Rank() ^ (np / 2)
					c.Sendrecv(p, exchBytes, p, 21)
				}
			}
			// Dot-product reductions dominate the latency budget.
			c.Allreduce(8)
			c.Allreduce(8)
		}
	})
}

// --- LU: 2D pipelined wavefront with a large number of small messages.
// Reference: class A runs 250 SSOR iterations over 62 k-planes; scaled to
// 50 iterations, keeping 31 plane-chunks per sweep so the per-message
// compute granularity (~90µs at 16 processes) — and with it the paper's
// defining LU property, a very high communication/computation ratio that
// saturates a single Event Logger — is preserved.

func buildLU(spec Spec) *Instance {
	if !isPow2(spec.NP) {
		panic("workload: lu requires a power-of-two process count")
	}
	np := spec.NP
	iters := 50 * spec.IterScale
	const chunks = 31 // pipelined k-plane chunks per sweep
	planeBytes := 40_000 / np * 2
	totalFlops := 119.3e9 / 5 * float64(spec.IterScale)
	stateBytes := int64(170<<20) / int64(np)
	// 2D decomposition: py × px with px ≥ py.
	py := 1 << (log2(np) / 2)
	px := np / py
	// The SSOR sweeps are communication-intensive: only a small triangular
	// update (~50 kflop) separates consecutive plane exchanges, while the
	// heavy RHS/Jacobian work happens between sweeps. Keeping this split is
	// what gives LU its defining property — bursts of small messages in
	// quick succession, which is exactly what stresses the Event Logger.
	iterFlops := totalFlops / float64(iters) / float64(np)
	chunkFlops := 50_000.0
	tailFlops := iterFlops - 2*float64(chunks)*chunkFlops
	if tailFlops < 0 {
		tailFlops = 0
		chunkFlops = iterFlops / (2 * float64(chunks))
	}
	perChunk := flopsTime(chunkFlops)
	perTail := flopsTime(tailFlops)
	return spmd(spec, totalFlops, stateBytes, func(_ *daemon.Node, c *mpi.Comm) {
		r := c.Rank()
		row, col := r/px, r%px
		north, south := -1, -1
		west, east := -1, -1
		if row > 0 {
			north = (row-1)*px + col
		}
		if row < py-1 {
			south = (row+1)*px + col
		}
		if col > 0 {
			west = r - 1
		}
		if col < px-1 {
			east = r + 1
		}
		for it := 0; it < iters; it++ {
			// Lower sweep: wavefront from the north-west corner.
			for k := 0; k < chunks; k++ {
				if north >= 0 {
					c.Recv(north, 30)
				}
				if west >= 0 {
					c.Recv(west, 31)
				}
				c.Compute(perChunk)
				if south >= 0 {
					c.Send(south, 30, planeBytes)
				}
				if east >= 0 {
					c.Send(east, 31, planeBytes)
				}
			}
			// Upper sweep: wavefront from the south-east corner.
			for k := 0; k < chunks; k++ {
				if south >= 0 {
					c.Recv(south, 32)
				}
				if east >= 0 {
					c.Recv(east, 33)
				}
				c.Compute(perChunk)
				if north >= 0 {
					c.Send(north, 32, planeBytes)
				}
				if west >= 0 {
					c.Send(west, 33, planeBytes)
				}
			}
			c.Compute(perTail)
			c.Allreduce(40)
		}
	})
}

// --- FT: all-to-all transposes with heavy per-iteration computation.
// Reference: class A runs 6 iterations on a 256×256×128 grid (~512 MB of
// complex data); kept at 6 iterations, data scaled by 1/4.

func buildFT(spec Spec) *Instance {
	if !isPow2(spec.NP) {
		panic("workload: ft requires a power-of-two process count")
	}
	np := spec.NP
	iters := 6 * spec.IterScale
	totalData := 134_000_000 / 4
	pairBytes := totalData / (np * np)
	totalFlops := 7.16e9 / 4 * float64(spec.IterScale)
	stateBytes := int64(400<<20) / 4 / int64(np)
	perIter := flopsTime(totalFlops / float64(iters) / float64(np))
	return spmd(spec, totalFlops, stateBytes, func(_ *daemon.Node, c *mpi.Comm) {
		for it := 0; it < iters; it++ {
			c.Compute(perIter)
			c.Alltoall(pairBytes)
			c.Allreduce(16)
		}
	})
}

// --- MG: V-cycle multigrid with neighbour exchanges whose sizes halve at
// each of the 8 grid levels. Reference: class A runs 4 iterations.

func buildMG(spec Spec) *Instance {
	if !isPow2(spec.NP) {
		panic("workload: mg requires a power-of-two process count")
	}
	np := spec.NP
	iters := 4 * spec.IterScale
	const levels = 8
	baseBytes := 1_000_000 / np
	totalFlops := 3.625e9 * float64(spec.IterScale)
	stateBytes := int64(450<<20) / int64(np)
	perLevel := flopsTime(totalFlops / float64(iters) / float64(np) / float64(2*levels))
	dims := log2(np)
	return spmd(spec, totalFlops, stateBytes, func(_ *daemon.Node, c *mpi.Comm) {
		for it := 0; it < iters; it++ {
			// Down the V-cycle (restriction) and back up (prolongation).
			for pass := 0; pass < 2; pass++ {
				for lvl := 0; lvl < levels; lvl++ {
					bytes := baseBytes >> lvl
					if bytes < 64 {
						bytes = 64
					}
					c.Compute(perLevel)
					if np > 1 {
						partner := c.Rank() ^ (1 << (lvl % dims))
						c.Sendrecv(partner, bytes, partner, 40+lvl)
					}
				}
			}
			c.Allreduce(8)
		}
	})
}

// BuildPingPong constructs the NetPIPE benchmark: reps ping-pong rounds of
// the given payload between ranks 0 and 1.
func BuildPingPong(bytes, reps int) *Instance {
	return spmd(Spec{Bench: "pingpong", NP: 2}, 0, 8<<20, func(_ *daemon.Node, c *mpi.Comm) {
		for i := 0; i < reps; i++ {
			if c.Rank() == 0 {
				c.Send(1, 0, bytes)
				c.Recv(1, 0)
			} else {
				c.Recv(0, 0)
				c.Send(0, 0, bytes)
			}
		}
	})
}
