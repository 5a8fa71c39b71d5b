package scenario

import (
	"fmt"

	"adaptivecast/internal/broadcast"
	"adaptivecast/internal/sim"
	"adaptivecast/internal/topology"
)

// budget picks the period budget: CI runs -short, local runs the full
// schedule. Fault windows below are placed inside the short budget, so
// the two modes exercise the same hostility — the long run just gives
// the estimators more tail.
func budget(short bool, full, trimmed int) int {
	if short {
		return trimmed
	}
	return full
}

// ids is a rotating origin list.
func ids(ns ...int) []topology.NodeID {
	out := make([]topology.NodeID, len(ns))
	for i, n := range ns {
		out[i] = topology.NodeID(n)
	}
	return out
}

func violation(violations []string, format string, args ...interface{}) []string {
	return append(violations, fmt.Sprintf(format, args...))
}

// baselineUniformLoss is the paper's own regime — uniform independent
// per-link loss — as the control row of the matrix: if this one
// regresses, the problem is the protocol, not the adversary.
func baselineUniformLoss() Scenario {
	return Scenario{
		Name:        "baseline-uniform-loss",
		Description: "Ring of 8 under the paper's uniform 5% independent per-link loss; no adversary.",
		Topology:    "ring(8)",
		Acceptance:  "delivery ≥ 0.99, views converge to the truth, no fault drops",
		Run: func(seed int64, short bool) (Figures, error) {
			// Bayesian convergence at 5% loss needs hundreds of periods
			// (worst observed across seeds ≈ 720); the budget leaves margin.
			// Twin periods are nearly free, so -short trims only lightly.
			periods := budget(short, 1200, 1000)
			g, err := topology.Ring(8)
			if err != nil {
				return Figures{}, err
			}
			tw, err := newTwin(seed, g, 0.05, 0, broadcast.RunnerOptions{})
			if err != nil {
				return Figures{}, err
			}
			tw.probeEvery(8, periods, 4, ids(0, 3, 5, 7))
			return tw.runFor(periods, 0), nil
		},
		Check: func(f Figures) (v []string) {
			if f.DeliveryRatio < 0.99 {
				v = violation(v, "delivery ratio %.4f < 0.99", f.DeliveryRatio)
			}
			if f.ConvergedAtPeriod < 0 {
				v = violation(v, "views never converged")
			}
			if f.FaultDrops != 0 {
				v = violation(v, "control scenario saw %d fault drops", f.FaultDrops)
			}
			return v
		},
	}
}

// asymmetricLoss breaks the paper's undirected-loss assumption: two
// directed link directions are much lossier than their reverses. The
// estimator books undirected loss, so truth-convergence is out of reach
// — delivery must hold anyway, because the allocation overshoots.
func asymmetricLoss() Scenario {
	return Scenario{
		Name:        "asymmetric-loss",
		Description: "Ring of 8 at 1% uniform loss plus 35% extra loss on the 0→1 and 5→4 directions only.",
		Topology:    "ring(8)",
		Acceptance:  "tail delivery ≥ 0.95 despite the undirected estimator mis-modeling the asymmetry; fault drops observed",
		Run: func(seed int64, short bool) (Figures, error) {
			periods := budget(short, 60, 36)
			g, err := topology.Ring(8)
			if err != nil {
				return Figures{}, err
			}
			tw, err := newTwin(seed, g, 0.01, 0, broadcast.RunnerOptions{})
			if err != nil {
				return Figures{}, err
			}
			tw.net.SetFaultModel(sim.AsymmetricLoss{
				{From: 0, To: 1}: 0.35,
				{From: 5, To: 4}: 0.35,
			})
			tw.probeEvery(8, periods, 4, ids(0, 1, 4, 5))
			return tw.runFor(periods, 0), nil
		},
		Check: func(f Figures) (v []string) {
			if f.TailDeliveryRatio < 0.95 {
				v = violation(v, "tail delivery %.4f < 0.95", f.TailDeliveryRatio)
			}
			if f.FaultDrops == 0 {
				v = violation(v, "asymmetric model never dropped anything")
			}
			return v
		},
	}
}

// burstLoss is time-correlated (Gilbert–Elliott) loss: exactly the
// regime the paper's independent-Bernoulli redundancy math does not
// model. Bad states eat ~85% of a link's traffic for stretches.
func burstLoss() Scenario {
	return Scenario{
		Name:        "burst-loss",
		Description: "Ring of 8 where every link direction runs a Gilbert–Elliott chain (5%→bad, 25%→good, 85% loss while bad).",
		Topology:    "ring(8)",
		Acceptance:  "tail delivery ≥ 0.85 under correlated bursts; fault drops observed",
		Run: func(seed int64, short bool) (Figures, error) {
			// Long enough that the tail window averages over many
			// good/bad-state cycles instead of riding one bad burst.
			periods := budget(short, 300, 200)
			g, err := topology.Ring(8)
			if err != nil {
				return Figures{}, err
			}
			tw, err := newTwin(seed, g, 0.01, 0, broadcast.RunnerOptions{})
			if err != nil {
				return Figures{}, err
			}
			tw.net.SetFaultModel(sim.NewGilbertElliott(0.05, 0.25, 0.005, 0.85))
			tw.probeEvery(8, periods, 3, ids(0, 2, 4, 6))
			return tw.runFor(periods, 0), nil
		},
		Check: func(f Figures) (v []string) {
			// 0.85, not the 0.99s of the uncorrelated rows: the protocol's
			// redundancy math assumes independent per-copy loss, and burst
			// chains are the scenario built to violate it. The bound pins
			// "degrades, but keeps delivering" with observed margin.
			if f.TailDeliveryRatio < 0.85 {
				v = violation(v, "tail delivery %.4f < 0.85", f.TailDeliveryRatio)
			}
			if f.FaultDrops == 0 {
				v = violation(v, "burst model never dropped anything")
			}
			return v
		},
	}
}

// wanJitter runs a mesh over WAN-ish per-hop latency with heavy jitter:
// deliveries reorder across period boundaries, stressing the
// sequence-gap loss accounting.
func wanJitter() Scenario {
	return Scenario{
		Name:        "wan-jitter",
		Description: "3×3 grid at 2% loss, 0.1δ base hop latency plus uniform jitter up to 0.8δ (reordering across periods).",
		Topology:    "grid(3x3)",
		Acceptance:  "tail delivery ≥ 0.97 and convergence despite reordered heartbeats",
		Run: func(seed int64, short bool) (Figures, error) {
			periods := budget(short, 300, 250)
			g, err := topology.Grid(3, 3)
			if err != nil {
				return Figures{}, err
			}
			tw, err := newTwin(seed, g, 0.02, 0.1, broadcast.RunnerOptions{})
			if err != nil {
				return Figures{}, err
			}
			tw.net.SetFaultModel(sim.Jitter{Max: 0.8})
			tw.probeEvery(8, periods, 4, ids(0, 4, 8, 2))
			return tw.runFor(periods, 0), nil
		},
		Check: func(f Figures) (v []string) {
			if f.TailDeliveryRatio < 0.97 {
				v = violation(v, "tail delivery %.4f < 0.97", f.TailDeliveryRatio)
			}
			if f.ConvergedAtPeriod < 0 {
				v = violation(v, "views never converged despite reordering")
			}
			return v
		},
	}
}

// healingPartition splits the ring in half for 15 periods, then heals.
// During the split a probe reaches only its side; the predicate is about
// what happens after — full delivery must return quickly.
func healingPartition() Scenario {
	return Scenario{
		Name:        "healing-partition",
		Description: "Ring of 8 at 2% loss; nodes {0–3} and {4–7} are severed from period 10 to 25, then the partition heals.",
		Topology:    "ring(8)",
		Acceptance:  "partition bites (worst probe ≤ 0.6, fault drops > 0), then delivery ≥ 0.98 after heal and reconvergence",
		Run: func(seed int64, short bool) (Figures, error) {
			// Fifteen periods of 100% phantom loss on the cut links leave a
			// deep posterior hole; relearning the healed truth takes ~800
			// periods (observed across seeds), hence the long budget.
			periods := budget(short, 1400, 1100)
			g, err := topology.Ring(8)
			if err != nil {
				return Figures{}, err
			}
			tw, err := newTwin(seed, g, 0.02, 0, broadcast.RunnerOptions{})
			if err != nil {
				return Figures{}, err
			}
			tw.net.SetFaultModel(sim.NewPartition(10, 25,
				[]topology.NodeID{0, 1, 2, 3},
				[]topology.NodeID{4, 5, 6, 7},
			))
			tw.probeEvery(5, periods, 3, ids(0, 4, 2, 6))
			return tw.runFor(periods, 30), nil
		},
		Check: func(f Figures) (v []string) {
			if f.FaultDrops == 0 {
				v = violation(v, "partition never dropped anything")
			}
			if f.WorstProbeRatio > 0.6 {
				v = violation(v, "worst probe ratio %.4f > 0.6: the partition did not bite", f.WorstProbeRatio)
			}
			if f.TailDeliveryRatio < 0.98 {
				v = violation(v, "post-heal delivery %.4f < 0.98", f.TailDeliveryRatio)
			}
			// The partition makes convergence impossible until it heals (cut
			// links read as pure loss), so any convergence period is proof
			// the views relearned the healed truth.
			if f.ConvergedAtPeriod < 0 {
				v = violation(v, "views never relearned the healed truth")
			}
			return v
		},
	}
}

// flappingLink takes one ring link down 3 of every 6 periods, forever.
// The ring's other arc routes around it; the estimator sees a link that
// is terrible on average and should stop leaning on it.
func flappingLink() Scenario {
	return Scenario{
		Name:        "flapping-link",
		Description: "Ring of 8 at 2% loss; link 0—1 flaps down for 3 of every 6 periods from period 5 on.",
		Topology:    "ring(8)",
		Acceptance:  "tail delivery ≥ 0.95 while the flap keeps firing (fault drops > 0)",
		Run: func(seed int64, short bool) (Figures, error) {
			periods := budget(short, 60, 36)
			g, err := topology.Ring(8)
			if err != nil {
				return Figures{}, err
			}
			tw, err := newTwin(seed, g, 0.02, 0, broadcast.RunnerOptions{})
			if err != nil {
				return Figures{}, err
			}
			tw.net.SetFaultModel(sim.LinkFlap{A: 0, B: 1, Start: 5, Period: 6, DownFor: 3})
			tw.probeEvery(8, periods, 4, ids(0, 1, 3, 6))
			return tw.runFor(periods, 0), nil
		},
		Check: func(f Figures) (v []string) {
			if f.TailDeliveryRatio < 0.95 {
				v = violation(v, "tail delivery %.4f < 0.95", f.TailDeliveryRatio)
			}
			if f.FaultDrops == 0 {
				v = violation(v, "flap never dropped anything")
			}
			return v
		},
	}
}

// clockSkew gives two nodes private clocks (one 50% slow, one 15%
// fast). Slow heartbeats look like loss to neighbors' period-based
// accounting; the cluster must absorb the phantom suspicion.
func clockSkew() Scenario {
	return Scenario{
		Name:        "clock-skew",
		Description: "Ring of 8 at 2% loss; node 3's clock runs 1.5× slow and node 5's 0.85× fast.",
		Topology:    "ring(8)",
		Acceptance:  "tail delivery ≥ 0.95 including probes from the skewed nodes; skew visibly cuts nominal heartbeat volume",
		Run: func(seed int64, short bool) (Figures, error) {
			periods := budget(short, 60, 36)
			g, err := topology.Ring(8)
			if err != nil {
				return Figures{}, err
			}
			skew := make([]float64, 8)
			for i := range skew {
				skew[i] = 1
			}
			skew[3] = 1.5
			skew[5] = 0.85
			tw, err := newTwin(seed, g, 0.02, 0, broadcast.RunnerOptions{ClockSkew: skew})
			if err != nil {
				return Figures{}, err
			}
			tw.probeEvery(8, periods, 4, ids(3, 0, 5, 6))
			return tw.runFor(periods, 0), nil
		},
		Check: func(f Figures) (v []string) {
			if f.TailDeliveryRatio < 0.95 {
				v = violation(v, "tail delivery %.4f < 0.95", f.TailDeliveryRatio)
			}
			// 8 nodes × 2 neighbors × periods is the nominal volume; the
			// slow node must have sent visibly fewer.
			if f.HeartbeatsSent >= 16*f.Periods {
				v = violation(v, "heartbeats %d not reduced by skew", f.HeartbeatsSent)
			}
			return v
		},
	}
}

// churnUnderLoss exercises Grow/MarkDeparted in the twin while links
// stay lossy: a replacement node joins mid-run bridging 0–2 (the
// departing node's position), then node 1 retires, and probes keep
// flowing the whole time. The bridge placement matters: knowledge
// records carry hop-count distortion and are only adopted when fresher,
// so a departure that lengthened gossip paths would hold remote link
// estimates at their pre-churn value until Event 2 aging
// (knowledge.Params.LinkAgeTimeout) let a copy over the longer path win
// — the scenario holds the distances fixed so reconvergence to the
// mutated truth measures the estimators, not the aging clock.
func churnUnderLoss() Scenario {
	return Scenario{
		Name:        "churn-under-loss",
		Description: "Ring of 6 at 8% loss; node 6 joins at period 15 bridging 0 and 2, node 1 departs at period 30.",
		Topology:    "ring(6)+churn",
		Acceptance:  "tail delivery ≥ 0.95 over the post-churn roster and reconvergence to the mutated ground truth",
		Run: func(seed int64, short bool) (Figures, error) {
			// Reconvergence to the post-churn ground truth at 8% loss is the
			// slowest and most seed-variable horizon in the matrix (observed
			// 190–750 periods, with probe traffic perturbing the trajectory
			// further); the budget leaves several-x margin.
			periods := budget(short, 3000, 2000)
			g, err := topology.Ring(6)
			if err != nil {
				return Figures{}, err
			}
			tw, err := newTwin(seed, g, 0.08, 0, broadcast.RunnerOptions{})
			if err != nil {
				return Figures{}, err
			}
			var growErr error
			tw.atPeriod(15, func() {
				id, err := tw.run.Grow([]topology.NodeID{0, 2})
				if err != nil {
					growErr = err
					return
				}
				// The new links share the cluster's hostility.
				_ = tw.net.Config().SetLossBetween(id, 0, 0.08)
				_ = tw.net.Config().SetLossBetween(id, 2, 0.08)
			})
			tw.atPeriod(30, func() {
				if err := tw.run.MarkDeparted(1); err != nil {
					growErr = err
				}
			})
			// Origins avoid the departing node; 6 is the joiner (probes
			// from it are skipped until it exists).
			tw.probeEvery(6, periods, 3, ids(0, 2, 6, 4))
			f := tw.runFor(periods, periods/2)
			return f, growErr
		},
		Check: func(f Figures) (v []string) {
			if f.TailDeliveryRatio < 0.95 {
				v = violation(v, "tail delivery %.4f < 0.95", f.TailDeliveryRatio)
			}
			if f.ConvergedAtPeriod < 0 {
				v = violation(v, "views never reconverged after churn")
			}
			if f.ProbesSent < 10 {
				v = violation(v, "only %d probes sent", f.ProbesSent)
			}
			return v
		},
	}
}
