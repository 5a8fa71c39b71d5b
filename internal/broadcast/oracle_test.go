package broadcast_test

import (
	"math"
	"testing"

	"adaptivecast/internal/broadcast"
	"adaptivecast/internal/scenario"
)

// TestDeltaMatchesFullSnapshotOracle runs every scenario twice at the
// same seed: once as shipped, each period's heartbeat a delta against
// the neighbor's ack, and once with every heartbeat the full snapshot,
// the paper's own exchange. The horizons and the ack chain may leave
// out only what a receiver already holds, so delivery and tail delivery
// must agree within binomial noise: a two-proportion z-test at two-sided
// α = 10⁻³. The trial is the probe, not the (probe, node) pair: a burst
// or a partition takes most of one probe's deliveries together, and a
// probe's delivered share, a value in [0, 1] of mean p, varies by at
// most the binomial p(1−p). Over seeds 1–20 of burst-loss the two modes
// delivered 15,043 and 15,064 of 15,680 (probe, node) pairs, while single
// seeds differed by up to 41 pairs either way.
func TestDeltaMatchesFullSnapshotOracle(t *testing.T) {
	const z = 3.2905 // the two-sided 10⁻³ quantile of the standard normal
	agree := func(p1 float64, n1 int, p2 float64, n2 int) bool {
		if n1 == 0 || n2 == 0 {
			return n1 == n2
		}
		p := (p1*float64(n1) + p2*float64(n2)) / float64(n1+n2)
		se := math.Sqrt(p * (1 - p) * (1/float64(n1) + 1/float64(n2)))
		return math.Abs(p1-p2) <= z*se
	}
	for _, s := range scenario.Matrix() {
		t.Run(s.Name, func(t *testing.T) {
			delta, err := s.Run(1, testing.Short())
			if err != nil {
				t.Fatal(err)
			}
			restore := broadcast.FullSnapshotsForTest()
			full, err := s.Run(1, testing.Short())
			restore()
			if err != nil {
				t.Fatal(err)
			}
			if full.HeartbeatBytes <= delta.HeartbeatBytes {
				t.Errorf("full snapshots sent %d heartbeat bytes, deltas %d: the reference sent no more than the deltas",
					full.HeartbeatBytes, delta.HeartbeatBytes)
			}
			if !agree(delta.DeliveryRatio, delta.ProbesSent, full.DeliveryRatio, full.ProbesSent) {
				t.Errorf("delivery: deltas %.4f over %d probes, full snapshots %.4f over %d",
					delta.DeliveryRatio, delta.ProbesSent, full.DeliveryRatio, full.ProbesSent)
			}
			if !agree(delta.TailDeliveryRatio, delta.TailProbesSent, full.TailDeliveryRatio, full.TailProbesSent) {
				t.Errorf("tail delivery: deltas %.4f over %d probes, full snapshots %.4f over %d",
					delta.TailDeliveryRatio, delta.TailProbesSent, full.TailDeliveryRatio, full.TailProbesSent)
			}
			t.Logf("delivery %.4f / %.4f, tail %.4f / %.4f, converged at %d / %d, heartbeat bytes %d / %d (deltas / full snapshots)",
				delta.DeliveryRatio, full.DeliveryRatio, delta.TailDeliveryRatio, full.TailDeliveryRatio,
				delta.ConvergedAtPeriod, full.ConvergedAtPeriod, delta.HeartbeatBytes, full.HeartbeatBytes)
		})
	}
}
