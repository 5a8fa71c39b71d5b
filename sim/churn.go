package sim

import (
	"context"
	"errors"
	"fmt"
	"time"

	"adaptivecast"
)

// ChurnEvent is one membership change in a churn schedule.
type ChurnEvent struct {
	// Period is the heartbeat period (tick index) the event fires at.
	Period int
	// Join adds a node linked to Neighbors; otherwise Node is removed.
	Join bool
	// Node is the leaver (leave events only; join IDs are assigned
	// densely by the cluster).
	Node NodeID
	// Neighbors are the joiner's links (join events only).
	Neighbors []NodeID
}

// ChurnConfig configures RunChurn.
type ChurnConfig struct {
	// Cluster is the base cluster configuration (Topology required). The
	// cluster is built, driven deterministically with Tick, and closed by
	// RunChurn.
	Cluster adaptivecast.ClusterConfig
	// Schedule lists the membership changes, in any order; events fire at
	// their period.
	Schedule []ChurnEvent
	// Periods is the total run length in heartbeat periods (default: last
	// event period + 16).
	Periods int
	// ProbeEvery broadcasts a probe from the lowest active member every
	// this many periods (default 8), measuring delivery under churn.
	ProbeEvery int
	// SettleDelay is the real-time drain pause per tick, letting the
	// in-process fabric's receive goroutines run (default 2ms).
	SettleDelay time.Duration
}

// ProbeResult records one probe broadcast's outcome.
type ProbeResult struct {
	// Period the probe was broadcast at, and its originating member.
	Period int
	Origin NodeID
	// Delivered counts the members (originator included — it self-
	// delivers) that delivered the probe by the end of the run; Expected
	// is the membership size three periods after the probe, the paper-
	// plus-epochs delivery bar RunChurn measures against.
	Delivered int
	Expected  int
}

// ChurnReport summarizes a churn run.
type ChurnReport struct {
	// Epoch is the final membership epoch; Active the final live member
	// count; NumProcs the final ID-space size.
	Epoch    uint64
	Active   int
	NumProcs int
	// Probes holds every probe's delivery outcome, in broadcast order.
	Probes []ProbeResult
}

// FullyDelivered reports whether every probe reached its whole expected
// membership.
func (r *ChurnReport) FullyDelivered() bool {
	for _, p := range r.Probes {
		if p.Delivered < p.Expected {
			return false
		}
	}
	return true
}

// RunChurn drives a cluster through a join/leave schedule, probing
// delivery along the way — the membership counterpart of the paper's
// convergence experiments, runnable against any topology and failure
// configuration the cluster accepts. Events fire between ticks; probes
// ride the adaptive broadcast exactly like application traffic. The run
// is deterministic up to goroutine scheduling (the fabric's loss sampling
// is seeded by the cluster configuration).
func RunChurn(cfg ChurnConfig) (*ChurnReport, error) {
	if cfg.Cluster.Topology == nil {
		return nil, errors.New("sim: churn needs a base topology")
	}
	probeEvery := cfg.ProbeEvery
	if probeEvery == 0 {
		probeEvery = 8
	}
	settle := cfg.SettleDelay
	if settle == 0 {
		settle = 2 * time.Millisecond
	}
	periods := cfg.Periods
	for _, ev := range cfg.Schedule {
		if ev.Period < 0 {
			return nil, fmt.Errorf("sim: churn event at negative period %d", ev.Period)
		}
		if ev.Period+16 > periods {
			periods = ev.Period + 16
		}
	}

	c, err := adaptivecast.NewCluster(cfg.Cluster)
	if err != nil {
		return nil, err
	}
	defer func() { _ = c.Close() }()

	type probe struct {
		ProbeResult
		body string
		seen map[NodeID]bool
	}
	var probes []*probe

	active := func() []NodeID {
		var out []NodeID
		g := c.Topology()
		for i := 0; i < g.NumNodes(); i++ {
			if g.Active(NodeID(i)) {
				out = append(out, NodeID(i))
			}
		}
		return out
	}
	// queued is a done context: Next with it takes what is queued and
	// never waits.
	queued, cancel := context.WithCancel(context.Background())
	cancel()
	drain := func() {
		for _, id := range active() {
			for {
				d, err := c.Node(id).Next(queued)
				if err != nil {
					break
				}
				for _, p := range probes {
					if string(d.Body) == p.body && !p.seen[id] {
						p.seen[id] = true
						p.Delivered++
					}
				}
			}
		}
	}

	lastEvent := -4 // no fold window pending at start
	for period := 0; period < periods; period++ {
		for _, ev := range cfg.Schedule {
			if ev.Period != period {
				continue
			}
			if ev.Join {
				if _, err := c.AddNode(ev.Neighbors...); err != nil {
					return nil, fmt.Errorf("sim: churn join at period %d: %w", period, err)
				}
			} else if err := c.RemoveNode(ev.Node); err != nil {
				return nil, fmt.Errorf("sim: churn leave of %d at period %d: %w", ev.Node, period, err)
			}
			lastEvent = period
		}
		// Probes inside a fold window (a membership change in the last 3
		// periods) are skipped: a joiner is only promised delivery 3
		// periods after its announcement, so a probe racing the fold
		// would measure the promise the protocol never made.
		if period%probeEvery == 0 && period-lastEvent > 3 {
			members := active()
			origin := members[0]
			p := &probe{body: fmt.Sprintf("churn-probe-%d", period), seen: make(map[NodeID]bool)}
			p.Period, p.Origin = period, origin
			if _, _, err := c.Broadcast(origin, []byte(p.body)); err != nil {
				return nil, fmt.Errorf("sim: probe at period %d: %w", period, err)
			}
			probes = append(probes, p)
		}
		c.Tick()
		time.Sleep(settle)
		drain()
		// The delivery bar for each probe is the membership three periods
		// after it was sent: joiners mid-fold and members removed since
		// are not expected to hold it.
		for _, p := range probes {
			if period == p.Period+3 {
				p.Expected = len(active())
			}
		}
	}
	time.Sleep(settle)
	drain()

	report := &ChurnReport{
		Epoch:    c.Epoch(),
		Active:   len(active()),
		NumProcs: c.Topology().NumNodes(),
	}
	for _, p := range probes {
		if p.Expected == 0 {
			p.Expected = report.Active // probe within 3 periods of the end
		}
		report.Probes = append(report.Probes, p.ProbeResult)
	}
	return report, nil
}
