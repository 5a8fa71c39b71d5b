// Package scenario turns hostile network conditions into an enumerable,
// machine-checked test table: every Scenario names a topology, a seeded
// fault schedule and an acceptance predicate, runs on the discrete-event
// twin (deterministic: same seed, same figures), and reports
// delivery/convergence figures that CI regression-checks. The matrix is what makes the
// ROADMAP's "handles every scenario you can imagine" an auditable claim
// instead of a slogan.
package scenario

import (
	"fmt"

	"adaptivecast/internal/broadcast"
	"adaptivecast/internal/config"
	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/node"
	"adaptivecast/internal/sim"
	"adaptivecast/internal/topology"
)

// probe is one tracked broadcast: sent at a known period, expected to
// reach every process that was up when it left.
type probe struct {
	id       broadcast.MsgID
	origin   topology.NodeID
	period   int
	sentAt   sim.Time
	expected int
}

// twinDelivery is one sink event, recorded in arrival order so float
// aggregation stays deterministic.
type twinDelivery struct {
	node topology.NodeID
	id   broadcast.MsgID
	at   sim.Time
}

// twin drives one scenario on the discrete-event twin: a Runner cluster
// plus scheduled probes, fault models and churn events, folded into
// Figures at the end.
type twin struct {
	eng        *sim.Engine
	net        *sim.Network
	run        *broadcast.Runner
	delta      sim.Time
	probes     []*probe
	deliveries []twinDelivery
	converged  int // first period AllConverged held; -1 until then
}

// newTwin builds a cluster over g with uniform link loss, a per-hop
// base latency, and the given runner options.
func newTwin(seed int64, g *topology.Graph, loss float64, latency sim.Time, ropts broadcast.RunnerOptions) (*twin, error) {
	cfg, err := config.Uniform(g, 0, loss)
	if err != nil {
		return nil, err
	}
	eng := sim.NewEngine(seed)
	net := sim.NewNetwork(eng, cfg, sim.Options{Latency: latency, DisableCrashSampling: true})
	tw := &twin{eng: eng, net: net, converged: -1}
	if ropts.Delta == 0 {
		ropts.Delta = 1
	}
	tw.delta = ropts.Delta
	run, err := broadcast.NewRunner(net, ropts, func(id topology.NodeID, d broadcast.Delivery) {
		tw.deliveries = append(tw.deliveries, twinDelivery{node: id, id: d.ID, at: eng.Now()})
	})
	if err != nil {
		return nil, err
	}
	tw.run = run
	return tw, nil
}

// atPeriod schedules fn mid-period (after that period's ticks fired).
func (tw *twin) atPeriod(period int, fn func()) {
	tw.eng.Schedule(sim.Time(period)*tw.delta+0.5*tw.delta-tw.eng.Now(), fn)
}

// probeAt schedules a tracked broadcast from origin mid-period. A probe
// whose origin is down at fire time is skipped (and not counted).
func (tw *twin) probeAt(period int, origin topology.NodeID) {
	tw.atPeriod(period, func() {
		// Active first: it bounds-checks, Up does not (a probe can be
		// scheduled from a node that has not joined yet).
		if !tw.net.Graph().Active(origin) || !tw.net.Up(origin) {
			return
		}
		id, _, err := tw.run.Proc(origin).Broadcast([]byte(fmt.Sprintf("probe-%d-%d", period, origin)))
		if err != nil {
			return
		}
		tw.probes = append(tw.probes, &probe{
			id:       id,
			origin:   origin,
			period:   period,
			sentAt:   tw.eng.Now(),
			expected: tw.upCount(),
		})
	})
}

// probeEvery schedules probes from rotating origins over [from, until).
func (tw *twin) probeEvery(from, until, every int, origins []topology.NodeID) {
	k := 0
	for p := from; p < until; p += every {
		tw.probeAt(p, origins[k%len(origins)])
		k++
	}
}

// upCount counts processes that are active members and not crashed.
func (tw *twin) upCount() int {
	g := tw.net.Graph()
	n := 0
	for i := 0; i < g.NumNodes(); i++ {
		id := topology.NodeID(i)
		if g.Active(id) && tw.net.Up(id) {
			n++
		}
	}
	return n
}

// runFor starts the cluster, watches convergence once per period, runs
// the engine for the given number of periods plus a drain tail, and
// folds the observations into Figures. tailFrom scopes
// TailDeliveryRatio to probes sent at or after that period (pass 0 for
// "the last third").
func (tw *twin) runFor(periods, tailFrom int) Figures {
	if tailFrom <= 0 {
		tailFrom = periods * 2 / 3
	}
	for p := 1; p <= periods; p++ {
		p := p
		tw.atPeriod(p, func() {
			if tw.converged < 0 && tw.run.AllConverged(knowledge.DefaultCriterion) {
				tw.converged = p
			}
		})
	}
	tw.run.Start()
	tw.eng.RunUntil(sim.Time(periods) * tw.delta)
	tw.run.Stop()
	tw.eng.Run() // drain in-flight deliveries and relays

	f := Figures{
		Periods:           periods,
		ConvergedAtPeriod: tw.converged,
		ConvergedAtEnd:    tw.run.AllConverged(knowledge.DefaultCriterion),
		HeartbeatsSent:    tw.run.HeartbeatsSent(),
		HeartbeatBytes:    tw.net.Stats().SentBytes(sim.KindHeartbeat),
		MessagesSent:      tw.net.Stats().TotalSent(),
		FaultDrops:        tw.net.Stats().FaultDrops(),
	}

	for i := range tw.net.Graph().NumNodes() {
		if p := tw.run.Proc(topology.NodeID(i)); p != nil {
			f.StaleEpochFrames += p.Outcomes[node.Stale]
			f.EpochChanges += p.Outcomes[node.Adopted]
		}
	}

	byID := make(map[broadcast.MsgID]*probe, len(tw.probes))
	for _, pr := range tw.probes {
		byID[pr.id] = pr
	}
	got := make(map[broadcast.MsgID]map[topology.NodeID]bool, len(tw.probes))
	var latencySum float64
	var latencyN int
	for _, d := range tw.deliveries {
		pr := byID[d.id]
		if pr == nil {
			continue
		}
		m := got[d.id]
		if m == nil {
			m = make(map[topology.NodeID]bool)
			got[d.id] = m
		}
		if !m[d.node] {
			m[d.node] = true
			latencySum += float64(d.at - pr.sentAt)
			latencyN++
		}
	}
	var tailDelivered, tailExpected int
	worst := 1.0
	for _, pr := range tw.probes {
		delivered := len(got[pr.id])
		f.ProbesSent++
		f.ProbesDelivered += delivered
		f.ProbesExpected += pr.expected
		if pr.expected > 0 {
			if r := float64(delivered) / float64(pr.expected); r < worst {
				worst = r
			}
		}
		if pr.period >= tailFrom {
			f.TailProbesSent++
			tailDelivered += delivered
			tailExpected += pr.expected
		}
	}
	if f.ProbesExpected > 0 {
		f.DeliveryRatio = float64(f.ProbesDelivered) / float64(f.ProbesExpected)
	}
	if tailExpected > 0 {
		f.TailDeliveryRatio = float64(tailDelivered) / float64(tailExpected)
	}
	f.WorstProbeRatio = worst
	if latencyN > 0 {
		f.MeanDeliveryLatency = latencySum / float64(latencyN)
	}
	return f
}
