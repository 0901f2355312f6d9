package workload

import (
	"fmt"
	"math"
	"math/rand"

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

// serviceOp is one entry of a rank's static op script: its kind and the
// index of the request it acts on.
type serviceOp struct {
	kind int32
	gk   int32
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
// Each rank's script runs in the deadlock-freedom order (nominal time,
// kind, request index). At a given NP a build takes time linear in its
// request count, with no sort: the schedule merges the per-rank arrival
// streams, and the scripts merge three runs the schedule already orders
// (serviceScripts). It panics on degenerate configs — service specs are
// static experiment configuration, like the NAS builders'.
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

	ops := serviceScripts(reqs, cfg.NP)
	in := spmd(Spec{Bench: "service", NP: cfg.NP}, 0, cfg.AppStateBytes, func(n *daemon.Node, c *mpi.Comm) {
		for _, op := range ops[c.Rank()] {
			r := &reqs[op.gk]
			switch op.kind {
			case opIssue:
				// Pace to the nominal issue time. The wait is computed
				// from the local clock, never skipped (op counts must
				// match across re-executions — Compute(0) still counts
				// a step), and collapses to zero when the client is
				// catching up after a stall.
				wait := r.at - n.Now()
				if wait < 0 {
					wait = 0
				}
				c.Compute(wait)
				c.Send(r.server, ServiceReqTag+r.gk, cfg.ReqBytes)
			case opServe:
				c.Recv(r.client, ServiceReqTag+r.gk)
				c.Compute(cfg.ServiceTime)
				c.Send(r.client, ServiceRespTag+r.gk, cfg.RespBytes)
			case opCollect:
				c.Recv(r.server, ServiceRespTag+r.gk)
				// Record only live consumptions: during checkpoint
				// fast-forward the Recv returns a placeholder without
				// touching the network, and the original execution
				// already observed this request.
				if !n.Skipping() {
					stats.observe(r.gk, n.Now()-r.at)
				}
			}
		}
	})
	in.Service = stats
	return in
}

// serviceScripts expands the schedule into one static op script per rank,
// each in (nominal time, kind, request index) order. In index order the
// requests form three runs already in that order: the issues, the serves
// and the collects (respDelay later). One three-way merge of the runs
// orders every op of the build, and each rank's script is its
// subsequence, so it is in order too: O(requests), no sort.
func serviceScripts(reqs []serviceRequest, np int) [][]serviceOp {
	// Presize every script from its counts (two ops per issued request,
	// one per served) and carve them from one buffer.
	counts := make([]int, np)
	for _, r := range reqs {
		counts[r.client] += 2
		counts[r.server]++
	}
	buf := make([]serviceOp, 3*len(reqs))
	ops := make([][]serviceOp, np)
	for rank, n := range counts {
		ops[rank], buf = buf[:0:n], buf[n:]
	}
	// Cursors i ≥ j ≥ k: a request is issued before it is served, and
	// served before it is collected. At equal times the smaller kind
	// wins; within a run the index order is the time order.
	n := len(reqs)
	for i, j, k := 0, 0, 0; k < n; {
		collectAt := reqs[k].at + respDelay
		switch {
		case i < n && reqs[i].at <= reqs[j].at && reqs[i].at <= collectAt:
			ops[reqs[i].client] = append(ops[reqs[i].client], serviceOp{opIssue, int32(i)})
			i++
		case j < n && reqs[j].at <= collectAt:
			ops[reqs[j].server] = append(ops[reqs[j].server], serviceOp{opServe, int32(j)})
			j++
		default:
			ops[reqs[k].client] = append(ops[reqs[k].client], serviceOp{opCollect, int32(k)})
			k++
		}
	}
	return ops
}

// scheduleRequests draws the per-rank Poisson streams and assigns global
// request indices in arrival order (ties broken by client rank), so index
// order matches nominal time order. Each stream is drawn in time order
// and no client repeats an instant (gaps are at least 1 ns), so arrival
// order is a k-way merge of the streams, each drawn one request ahead.
func scheduleRequests(cfg ServiceConfig) []serviceRequest {
	type stream struct {
		rng  *rand.Rand
		next serviceRequest // drained once next.at reaches the window
	}
	draw := func(s *stream) {
		gap := sim.Time(s.rng.ExpFloat64() / cfg.RatePerRank * float64(sim.Second))
		if gap < 1 {
			gap = 1
		}
		s.next.at += gap
		if s.next.at < cfg.Window {
			s.next.server = s.rng.Intn(cfg.NP - 1)
			if s.next.server >= s.next.client {
				s.next.server++
			}
		}
	}
	streams := make([]stream, cfg.NP)
	for client := range streams {
		// One independent, deterministically derived stream per rank.
		s := &streams[client]
		s.rng = rand.New(rand.NewSource(mix64(cfg.Seed, int64(client))))
		s.next.client = client
		draw(s)
	}
	// Presize for the expected count plus four standard deviations (1 ns
	// gaps cap a stream at one request per nanosecond of window).
	mean := float64(cfg.NP) * min(cfg.RatePerRank*cfg.Window.Seconds(), float64(cfg.Window))
	reqs := make([]serviceRequest, 0, int(min(mean+4*math.Sqrt(mean), ServiceMaxRequests)))
	for {
		best := -1
		for c := range streams {
			// Strictly earlier: a tie falls to the lower client.
			if at := streams[c].next.at; at < cfg.Window && (best < 0 || at < streams[best].next.at) {
				best = c
			}
		}
		if best < 0 {
			return reqs
		}
		if len(reqs) == ServiceMaxRequests-1 {
			panic(fmt.Sprintf("workload: service schedules %d or more requests, the tag-plane width — lower the rate or shorten the window", ServiceMaxRequests))
		}
		r := streams[best].next
		r.gk = len(reqs)
		reqs = append(reqs, r)
		draw(&streams[best])
	}
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
