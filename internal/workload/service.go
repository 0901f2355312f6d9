package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"mpichv/internal/daemon"
	"mpichv/internal/mpi"
	"mpichv/internal/obs"
	"mpichv/internal/sim"
)

// The service workload models an always-on request/response system on top
// of the MPI fabric — the regime the ROADMAP's production north star cares
// about, which no batch NAS kernel reaches: requests keep arriving while a
// rank is being restored and replayed, so recovery time is paid in request
// latency rather than in a longer completion time.
//
// The arrival process is open-loop: every request's nominal issue time is
// fixed at build time by per-rank Poisson streams drawn from a seeded
// generator, independent of how the run unfolds. A client that is down (or
// blocked on a slow response) does not thin out its own schedule — it
// catches up in a burst once unblocked, and each delayed request's latency
// is still measured from its *scheduled* time. This is the standard guard
// against coordinated omission: stalls inflate the latency tail instead of
// silently erasing the requests that would have been hurt.
//
// Determinism constraints. Programs are re-executed during recovery
// (checkpoint fast-forward skips ops; replay conforms receptions to
// collected determinants), so each rank's op script must be a static
// function of the build alone: fixed op count, fixed (peer, tag, bytes)
// arguments, and no branching on message content or on whether an op ran
// under skip. The only run-dependent value a program reads is the local
// virtual clock, used to pace issues (Compute of the remaining wait, zero
// when already late) — legal because compute is local and creates no
// determinants. Each request owns a unique pair of tags (request and
// response planes offset by its global index), so receptions match by
// static (src, tag) and a checkpoint landing mid-op never makes a Send
// argument depend on a previous Recv's payload.
//
// Deadlock freedom. Order every op by (nominal time, kind, request index)
// with issue < serve < collect at equal times. An op blocks only in Recv,
// and always on a message sent by an op with a strictly smaller key (a
// serve waits on the same-time issue; a collect waits on a serve respDelay
// earlier), so the globally smallest blocked op's sender either already
// ran or sits behind only non-blocking or smaller-keyed ops — some rank
// can always progress.

// Service request/response tag planes. Request k uses ServiceReqTag+k and
// ServiceRespTag+k; collectives reserve 1<<20..5<<20, so the planes start
// at 6<<20 and k must stay below ServiceMaxRequests.
const (
	ServiceReqTag  = 6 << 20
	ServiceRespTag = 7 << 20
	// ServiceMaxRequests bounds the per-build request count (the tag-plane
	// width).
	ServiceMaxRequests = 1 << 20
)

// ServiceConfig sizes one service build.
type ServiceConfig struct {
	// NP is the number of ranks; every rank is both a client (issuing its
	// own Poisson stream) and a server (serving requests addressed to it).
	NP int
	// Seed drives the arrival process (inter-arrival draws and server
	// choices). Builds with equal configs are identical; the seed is
	// independent of the simulation seed so the same offered load can be
	// replayed against different stacks and fault scenarios.
	Seed int64
	// RatePerRank is each client's mean request rate in requests per
	// virtual second.
	RatePerRank float64
	// Window is the arrival window: requests are scheduled in [0, Window).
	// Size the run's horizon with slack past the window so a fault-free
	// run drains every request (zero drops) before the horizon cuts it.
	Window sim.Time
	// ServiceTime is the server-side compute per request.
	ServiceTime sim.Time
	// ReqBytes and RespBytes are the request and response payload sizes.
	ReqBytes, RespBytes int
	// AppStateBytes is the per-rank checkpoint image contribution
	// (0 selects 1 MB — a service holds session state, not a NAS grid).
	AppStateBytes int64
}

// respDelay is the nominal offset between a request's issue and the
// client's response-collection op. It only orders ops (collection still
// blocks until the response arrives) and must be positive.
const respDelay = sim.Millisecond

// serviceRequest is one scheduled request of the open-loop stream.
type serviceRequest struct {
	gk     int // global index: tag offset and stats key
	client int
	server int
	at     sim.Time // nominal issue time
}

// Service op kinds, in tie-breaking order at equal nominal times (the
// deadlock-freedom order: an op never waits on a later-keyed one).
const (
	opIssue = iota
	opServe
	opCollect
)

// serviceOp is one entry of a rank's static op script.
type serviceOp struct {
	at   sim.Time
	kind int
	req  serviceRequest
}

// ServiceStats is the per-build latency collector. It lives outside the
// simulated processes, so it survives kills and re-executions: a request
// consumed before a crash keeps its first-observed latency when replay
// re-runs the same op (first observation wins, keyed by request index).
// One collector serves one run — build a fresh instance per cell.
type ServiceStats struct {
	scheduled int
	completed int
	latency   []sim.Time // per-request, -1 until observed
	hist      *obs.LatencyHist
}

// observe records request gk's first consumption, l after its scheduled
// issue time. Later observations of the same request (conformant replay
// re-running an already-consumed collect) are ignored.
func (s *ServiceStats) observe(gk int, l sim.Time) {
	if s.latency[gk] >= 0 {
		return
	}
	if l < 0 {
		l = 0
	}
	s.latency[gk] = l
	s.hist.Observe(l)
	s.completed++
}

// Scheduled returns the total number of requests the build scheduled.
func (s *ServiceStats) Scheduled() int { return s.scheduled }

// Completed returns the number of requests whose response was consumed.
func (s *ServiceStats) Completed() int { return s.completed }

// Dropped returns the requests still unanswered when the run stopped —
// zero on any run that drained its window, positive when the horizon cut
// a degraded run short.
func (s *ServiceStats) Dropped() int { return s.scheduled - s.completed }

// Hist returns the fixed-bucket latency histogram (per-request virtual
// latency from scheduled issue to response consumption).
func (s *ServiceStats) Hist() *obs.LatencyHist { return s.hist }

// Quantile returns the q-quantile of per-request latency in virtual
// nanoseconds (see obs.LatencyHist.Quantile).
func (s *ServiceStats) Quantile(q float64) sim.Time { return s.hist.Quantile(q) }

// GoodputRPS returns completed requests per virtual second over a run
// that ended at end.
func (s *ServiceStats) GoodputRPS(end sim.Time) float64 {
	if end <= 0 {
		return 0
	}
	return float64(s.completed) / end.Seconds()
}

// BuildService constructs the open-loop request/response service
// workload. Every build with the same config is identical (same schedule,
// same op scripts); Instance.Service carries the run's latency collector.
// It panics on degenerate configs — service specs are static experiment
// configuration, like the NAS builders'.
func BuildService(cfg ServiceConfig) *Instance {
	if cfg.NP < 2 {
		panic("workload: service requires at least 2 ranks")
	}
	if cfg.RatePerRank <= 0 || cfg.Window <= 0 {
		panic("workload: service requires a positive rate and window")
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.ServiceTime <= 0 {
		cfg.ServiceTime = 2 * sim.Millisecond
	}
	if cfg.ReqBytes <= 0 {
		cfg.ReqBytes = 2 << 10
	}
	if cfg.RespBytes <= 0 {
		cfg.RespBytes = 8 << 10
	}
	if cfg.AppStateBytes <= 0 {
		cfg.AppStateBytes = 1 << 20
	}

	reqs := scheduleRequests(cfg)
	stats := &ServiceStats{
		scheduled: len(reqs),
		latency:   make([]sim.Time, len(reqs)),
		hist:      obs.NewLatencyHist(),
	}
	for i := range stats.latency {
		stats.latency[i] = -1
	}

	// Expand the schedule into one static op script per rank, ordered by
	// (nominal time, kind, request index).
	ops := make([][]serviceOp, cfg.NP)
	for _, r := range reqs {
		ops[r.client] = append(ops[r.client], serviceOp{at: r.at, kind: opIssue, req: r})
		ops[r.server] = append(ops[r.server], serviceOp{at: r.at, kind: opServe, req: r})
		ops[r.client] = append(ops[r.client], serviceOp{at: r.at + respDelay, kind: opCollect, req: r})
	}
	for rank := range ops {
		script := ops[rank]
		sort.Slice(script, func(i, j int) bool {
			if script[i].at != script[j].at {
				return script[i].at < script[j].at
			}
			if script[i].kind != script[j].kind {
				return script[i].kind < script[j].kind
			}
			return script[i].req.gk < script[j].req.gk
		})
	}

	in := spmd(Spec{Bench: "service", NP: cfg.NP}, 0, cfg.AppStateBytes, func(n *daemon.Node, c *mpi.Comm) {
		for _, op := range ops[c.Rank()] {
			switch op.kind {
			case opIssue:
				// Pace to the nominal issue time. The wait is computed
				// from the local clock, never skipped (op counts must
				// match across re-executions — Compute(0) still counts
				// a step), and collapses to zero when the client is
				// catching up after a stall.
				wait := op.at - n.Now()
				if wait < 0 {
					wait = 0
				}
				c.Compute(wait)
				c.Send(op.req.server, ServiceReqTag+op.req.gk, cfg.ReqBytes)
			case opServe:
				c.Recv(op.req.client, ServiceReqTag+op.req.gk)
				c.Compute(cfg.ServiceTime)
				c.Send(op.req.client, ServiceRespTag+op.req.gk, cfg.RespBytes)
			case opCollect:
				c.Recv(op.req.server, ServiceRespTag+op.req.gk)
				// Record only live consumptions: during checkpoint
				// fast-forward the Recv returns a placeholder without
				// touching the network, and the original execution
				// already observed this request.
				if !n.Skipping() {
					stats.observe(op.req.gk, n.Now()-op.req.at)
				}
			}
		}
	})
	in.Service = stats
	return in
}

// scheduleRequests draws the per-rank Poisson streams and assigns global
// request indices in arrival order (ties broken by client rank), so index
// order matches nominal time order.
func scheduleRequests(cfg ServiceConfig) []serviceRequest {
	var reqs []serviceRequest
	for client := 0; client < cfg.NP; client++ {
		// One independent, deterministically derived stream per rank.
		rng := rand.New(rand.NewSource(mix64(cfg.Seed, int64(client))))
		t := sim.Time(0)
		for {
			gap := sim.Time(rng.ExpFloat64() / cfg.RatePerRank * float64(sim.Second))
			if gap < 1 {
				gap = 1
			}
			t += gap
			if t >= cfg.Window {
				break
			}
			server := rng.Intn(cfg.NP - 1)
			if server >= client {
				server++
			}
			reqs = append(reqs, serviceRequest{client: client, server: server, at: t})
		}
	}
	sort.Slice(reqs, func(i, j int) bool {
		if reqs[i].at != reqs[j].at {
			return reqs[i].at < reqs[j].at
		}
		return reqs[i].client < reqs[j].client
	})
	for i := range reqs {
		reqs[i].gk = i
	}
	if len(reqs) >= ServiceMaxRequests {
		panic(fmt.Sprintf("workload: service schedules %d requests, above the %d tag-plane width — lower the rate or shorten the window", len(reqs), ServiceMaxRequests))
	}
	return reqs
}

// mix64 derives a per-rank stream seed from the build seed (splitmix64
// finalizer over the pair, never zero).
func mix64(seed, lane int64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(lane)*0xbf58476d1ce4e5b9
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return int64(z & (1<<63 - 1))
}
