package obs

import "mpichv/internal/sim"

// Metrics are the availability figures derived from a run timeline.
type Metrics struct {
	// Repairs counts completed fault repairs: down windows closed by a
	// recovery (a window closed by program completion or by the end of the
	// run is downtime but not a repair).
	Repairs int
	// MTTR is the mean time to repair — repair downtime over Repairs
	// (0 when no repair completed).
	MTTR sim.Time
	// Downtime is the total rank-downtime: the sum over ranks of every
	// down window, including windows still open at the end of the run.
	Downtime sim.Time
	// Availability is the rank-availability fraction:
	// 1 − Downtime / (np · end). A zero-length run is fully available.
	Availability float64
}

// Downtime is the one availability accounting: it turns a stream of rank
// lifecycle events into the Metrics figures. A rank's down window opens at
// the first kill, suspect or restart event of an up rank — an overlapping
// kill extends the same outage, and a restart without a prior kill is how
// a coordinated-rollback peer goes down. It closes as a repair (feeding
// MTTR) at the rank's recovery, and as plain downtime at program completion
// (a suspected rank finishing behind a partition, its respawn cancelled)
// or, still open, at the instant the figures are read. The cluster feeds
// it live from the dispatcher's event stream; ComputeMetrics feeds it a
// recorded timeline.
type Downtime struct {
	since      []sim.Time // open window's start per rank; -1 = up
	total      sim.Time   // closed windows
	repairTime sim.Time   // the subset closed by a recovery
	repairs    int
}

// NewDowntime returns an accumulator over len(since) ranks, all up. The
// caller supplies the per-rank storage so a deployment can carve it from an
// allocation it already makes.
func NewDowntime(since []sim.Time) Downtime {
	for r := range since {
		since[r] = -1
	}
	return Downtime{since: since}
}

// Observe applies one timeline event and returns the start of the down
// window it closes at ev.T, or -1 when it closes none. Kinds other than the
// rank lifecycle and ranks outside the deployment are ignored.
func (d *Downtime) Observe(ev Event) (from sim.Time) {
	rank, t := ev.Rank, ev.T
	if rank < 0 || rank >= len(d.since) {
		return -1
	}
	switch ev.Kind {
	case KindKill, KindSuspect, KindRestart:
		if d.since[rank] < 0 {
			d.since[rank] = t
		}
	case KindRecovered, KindFinished:
		from = d.since[rank]
		if from < 0 {
			return -1
		}
		d.since[rank] = -1
		d.total += t - from
		if ev.Kind == KindRecovered {
			d.repairTime += t - from
			d.repairs++
		}
		return from
	}
	return -1
}

// Metrics returns the figures as of virtual time now, counting windows
// still open as downtime up to now.
func (d *Downtime) Metrics(now sim.Time) Metrics {
	m := Metrics{Repairs: d.repairs, Downtime: d.total, Availability: 1}
	for _, s := range d.since {
		if s >= 0 {
			m.Downtime += now - s
		}
	}
	if m.Repairs > 0 {
		m.MTTR = d.repairTime / sim.Time(m.Repairs)
	}
	if now > 0 && len(d.since) > 0 {
		m.Availability = 1 - float64(m.Downtime)/(float64(len(d.since))*float64(now))
	}
	return m
}

// ComputeMetrics derives availability metrics from a timeline over np
// ranks that ended at virtual time end, by replaying it through the same
// Downtime accumulator the cluster feeds live.
func ComputeMetrics(events []Event, np int, end sim.Time) Metrics {
	d := NewDowntime(make([]sim.Time, np))
	for _, ev := range events {
		d.Observe(ev)
	}
	return d.Metrics(end)
}
