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
	// (the cluster records the wave on its timeline).
	waveObservers []func(epoch int)

	// tickFn and waveFn are the timer's events, built once.
	tickFn, waveFn func()
}

// NewScheduler builds a scheduler on the given endpoint and arms its
// timer. interval ≤ 0 disables scheduling regardless of policy. An
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
		s.tickFn, s.waveFn = s.tick, s.wave
		k.After(interval, s.tickFn)
	}
	return s
}

// ObserveWaves subscribes fn to wave notifications: it runs (in kernel
// event context) right after a wave's checkpoint requests have been sent,
// while the images are still being built and stored.
func (s *Scheduler) ObserveWaves(fn func(epoch int)) {
	s.waveObservers = append(s.waveObservers, fn)
}

// tick is the timer. It runs the wave behind the events already due at its
// instant: the observers write the wave to the timeline (ckpt-wave), and
// that record follows the instant's other events.
//
//mpichv:noalloc
func (s *Scheduler) tick() { s.k.At(s.k.Now(), s.waveFn) }

// wave asks the policy's targets to checkpoint, notifies the observers and
// re-arms the timer.
func (s *Scheduler) wave() {
	s.epoch++
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
	s.k.After(s.interval, s.tickFn)
}

func (s *Scheduler) request(rank int) {
	pkt := vproto.GetPacket()
	pkt.Kind = vproto.PktCkptRequest
	pkt.From = s.ep.ID()
	pkt.Epoch = s.epoch
	s.ep.Send(rank, 16, pkt)
}
