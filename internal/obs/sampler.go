package obs

import "mpichv/internal/sim"

// Gauge is one sampled scalar: Fn reads the current value (it must be a
// pure observation — no mutation, no randomness — so traced and untraced
// runs stay result-identical) and Kind tags its timeline events.
type Gauge struct {
	Kind Kind
	Fn   func() int64
}

// Sampler records a set of gauges into a Recorder every SampleInterval of
// virtual time. Its ticks are kernel Background events: they never keep a
// run alive, so a deployment that deadlocks (or completes by draining its
// queue) ends at its last real event, traced or not.
type Sampler struct {
	k      *sim.Kernel
	rec    *Recorder
	gauges []Gauge
}

// NewSampler builds a sampler of the given gauges.
func NewSampler(k *sim.Kernel, rec *Recorder, gauges []Gauge) *Sampler {
	return &Sampler{k: k, rec: rec, gauges: gauges}
}

// Start schedules the first sample at the current virtual time (so every
// timeline opens with a baseline row) and then every SampleInterval for as
// long as the run goes on.
func (s *Sampler) Start() {
	if s.rec == nil || len(s.gauges) == 0 {
		return
	}
	s.k.Background(s.k.Now(), s.tick)
}

func (s *Sampler) tick() {
	now := s.k.Now()
	for _, g := range s.gauges {
		s.rec.Record(now, g.Kind, -1, g.Fn(), "")
	}
	s.k.Background(now+SampleInterval, s.tick)
}
