package checkpoint

import (
	"fmt"

	"mpichv/internal/netmodel"
	"mpichv/internal/sim"
	"mpichv/internal/vproto"
)

// Policy selects which processes a scheduler wave asks to checkpoint.
type Policy string

// Scheduler policies (§IV-B.3 of the paper).
const (
	// PolicyNone disables scheduled checkpoints.
	PolicyNone Policy = "none"
	// PolicyRoundRobin checkpoints one process per interval, cycling
	// through the ranks — the uncoordinated default for message logging:
	// it spreads checkpoint-server load and maximizes sender-based log
	// garbage collection.
	PolicyRoundRobin Policy = "rr"
	// PolicyRandom checkpoints one random process per interval.
	PolicyRandom Policy = "random"
	// PolicyCoordinated triggers a Chandy-Lamport wave over every process
	// each interval.
	PolicyCoordinated Policy = "coordinated"
)

// Scheduler periodically instructs nodes to checkpoint. It runs on the
// same stable machine as the other auxiliary servers and costs only the
// request packets it emits.
type Scheduler struct {
	k        *sim.Kernel
	ep       *netmodel.Endpoint
	np       int
	policy   Policy
	interval sim.Time
	epoch    int

	// waveObservers are notified after each wave's requests are issued
	// (fault-scenario engines use this to land faults mid-checkpoint).
	waveObservers []func(epoch int)

	// Waves counts scheduling rounds issued.
	Waves int64
}

// NewScheduler builds a scheduler on the given endpoint and starts its
// timer loop. interval ≤ 0 disables scheduling regardless of policy. An
// unknown policy panics here, at construction, rather than at the first
// wave deep inside the simulation loop.
func NewScheduler(k *sim.Kernel, net *netmodel.Network, endpoint, np int,
	policy Policy, interval sim.Time) *Scheduler {
	switch policy {
	case PolicyNone, PolicyRoundRobin, PolicyRandom, PolicyCoordinated:
	default:
		panic(fmt.Sprintf("checkpoint: unknown policy %q (want %q, %q, %q or %q)",
			policy, PolicyNone, PolicyRoundRobin, PolicyRandom, PolicyCoordinated))
	}
	s := &Scheduler{
		k: k, ep: net.Endpoint(endpoint), np: np,
		policy: policy, interval: interval,
	}
	if policy != PolicyNone && interval > 0 {
		k.Spawn("ckpt-scheduler", s.run)
	}
	return s
}

// ObserveWaves subscribes fn to wave notifications: it runs (in the
// scheduler's process context) right after a wave's checkpoint requests
// have been sent, while the images are still being built and stored.
func (s *Scheduler) ObserveWaves(fn func(epoch int)) {
	s.waveObservers = append(s.waveObservers, fn)
}

func (s *Scheduler) run(p *sim.Proc) {
	for {
		p.Sleep(s.interval)
		s.epoch++
		s.Waves++
		switch s.policy {
		case PolicyRoundRobin:
			target := (s.epoch - 1) % s.np
			s.request(target)
		case PolicyRandom:
			s.request(s.k.Rand().Intn(s.np))
		case PolicyCoordinated:
			for r := 0; r < s.np; r++ {
				s.request(r)
			}
		}
		for _, fn := range s.waveObservers {
			fn(s.epoch)
		}
	}
}

func (s *Scheduler) request(rank int) {
	pkt := vproto.GetPacket()
	pkt.Kind = vproto.PktCkptRequest
	pkt.From = s.ep.ID()
	pkt.Epoch = s.epoch
	s.ep.Send(rank, 16, pkt)
}
