package node

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"adaptivecast/internal/bayes"
	"adaptivecast/internal/dataplane"
	"adaptivecast/internal/topology"
	"adaptivecast/internal/transport"
)

// TestRecoveredBroadcasterNotCensored is the regression test for the
// post-crash sequence-reuse bug: with stable storage alone (no dedup
// log), a restarted broadcaster used to re-issue seq 1, 2, … and every
// live peer's dedup watermark silently suppressed all of its
// post-recovery broadcasts forever. The persisted sequence lease must
// resume the sequencer above everything the previous incarnation issued.
func TestRecoveredBroadcasterNotCensored(t *testing.T) {
	g, err := topology.Line(2)
	if err != nil {
		t.Fatal(err)
	}
	store := &MemStorage{}
	fabric := transport.NewFabric(transport.FabricOptions{})
	defer func() { _ = fabric.Close() }()

	mk := func() *Node {
		return newTestNode(t, Config{
			ID: 0, NumProcs: 2, Neighbors: g.Neighbors(0), Storage: store,
		}, fabric.Endpoint(0))
	}
	peer := newTestNode(t, Config{ID: 1, NumProcs: 2, Neighbors: g.Neighbors(1)}, fabric.Endpoint(1))

	sender := mk()
	for i := 0; i < 3; i++ {
		if _, _, err := sender.Broadcast([]byte(fmt.Sprintf("pre%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		waitDelivery(t, peer) // the peer's watermark now covers seqs 1..3
	}

	// Crash: all volatile state gone, only the storage survives. The peer
	// keeps running with its watermark intact — the scenario that used to
	// censor the recovered node.
	stopNode(sender)
	sender2 := mk()
	seq, _, err := sender2.Broadcast([]byte("post-recovery"))
	if err != nil {
		t.Fatal(err)
	}
	if seq <= 3 {
		t.Fatalf("recovered node re-issued seq %d, must resume above the pre-crash 3", seq)
	}
	d := waitDelivery(t, peer)
	if string(d.Body) != "post-recovery" {
		t.Fatalf("peer delivered %q, want the post-recovery broadcast", d.Body)
	}
}

// TestDeliveredSetWatermarkVsRestart is the table-driven satellite: how
// a peer's dedup watermark interacts with an origin whose sequencer did
// or did not survive a restart.
func TestDeliveredSetWatermarkVsRestart(t *testing.T) {
	cases := []struct {
		name    string
		seen    []uint64 // seqs marked before the origin's restart
		offered uint64   // first seq offered after the restart
		want    bool     // should the offered seq be fresh (delivered)?
	}{
		{"reused-seq-suppressed", []uint64{1, 2, 3}, 1, false},
		{"reused-mid-seq-suppressed", []uint64{1, 2, 3}, 3, false},
		{"resumed-contiguous-delivered", []uint64{1, 2, 3}, 4, true},
		{"resumed-with-lease-gap-delivered", []uint64{1, 2, 3}, 3 + seqLeaseBatch + 1, true},
		{"out-of-order-above-watermark-delivered", []uint64{1, 2, 5}, 4, true},
		{"duplicate-above-watermark-suppressed", []uint64{1, 2, 5}, 5, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := new(dataplane.Dedup)
			for _, q := range tc.seen {
				s.Mark(3, q)
			}
			if got := s.Mark(3, tc.offered); got != tc.want {
				t.Errorf("mark(origin 3, seq %d) after %v = %v, want %v",
					tc.offered, tc.seen, got, tc.want)
			}
		})
	}
}

// TestOnRecoverClockMarkSkew is the table-driven satellite for Event 4
// booking against a skewed clock mark: downtime books missed ticks, a
// future mark (the clock went backwards across the restart) books
// nothing instead of corrupting the estimator with a negative count.
func TestOnRecoverClockMarkSkew(t *testing.T) {
	const delta = time.Second
	base := time.Unix(5000, 0)
	cases := []struct {
		name       string
		markOffset time.Duration // mark time relative to the restart clock
		wantWorse  bool          // self crash estimate degraded vs fresh?
	}{
		{"long-downtime-booked", -60 * delta, true},
		{"sub-period-downtime-ignored", -delta / 2, false},
		{"future-mark-clock-skew-ignored", 30 * delta, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store := &MemStorage{}
			if err := store.SaveMark(base.Add(tc.markOffset), 0); err != nil {
				t.Fatal(err)
			}
			fabric := transport.NewFabric(transport.FabricOptions{})
			defer func() { _ = fabric.Close() }()
			nd := newTestNode(t, Config{
				ID: 0, NumProcs: 2, Neighbors: []topology.NodeID{1},
				Storage: store, HeartbeatEvery: delta,
				Now: func() time.Time { return base },
			}, fabric.Endpoint(0))

			fabric2 := transport.NewFabric(transport.FabricOptions{})
			defer func() { _ = fabric2.Close() }()
			fresh := newTestNode(t, Config{ID: 0, NumProcs: 2, Neighbors: []topology.NodeID{1}},
				fabric2.Endpoint(0))

			recovered, _ := nd.CrashEstimate(0)
			baseline, _ := fresh.CrashEstimate(0)
			if tc.wantWorse && recovered <= baseline {
				t.Errorf("crash estimate %v not degraded vs fresh %v despite downtime", recovered, baseline)
			}
			if !tc.wantWorse && recovered != baseline {
				t.Errorf("crash estimate %v differs from fresh %v; no downtime should be booked", recovered, baseline)
			}
		})
	}
}

// TestAckChainRepairsAcrossReceiverRestart pins the delta ack chain's
// restart story end to end: a receiver that loses its volatile state
// keeps echoing a stale (empty) ack, which must push every neighbor to
// the full-snapshot fallback on its next heartbeat — so the restarted
// node re-learns the whole converged topology within one round trip
// (one period for its ack to reach the neighbors, one for the fulls to
// come back).
func TestAckChainRepairsAcrossReceiverRestart(t *testing.T) {
	g, err := topology.Ring(5)
	if err != nil {
		t.Fatal(err)
	}
	c := newStepped(t, g, 0, nil)
	c.ticks(250, false) // converge: steady-state deltas are empty

	replacement := c.add(Config{ID: 2, NumProcs: 5, Neighbors: g.Neighbors(2)})
	nodes := c.nodes

	// Period 1: everyone ticks. The restarted node heartbeats Ack 0; its
	// neighbors' frames this period were cut against the pre-crash ack,
	// so they carry deltas the fresh view cannot use.
	c.ticks(1, false)
	// Period 2: the neighbors saw Ack 0 (unanchorable) and must fall
	// back to full snapshots, repairing the fresh view completely.
	c.ticks(1, false)
	if got := len(replacement.KnownLinks()); got != 5 {
		t.Errorf("restarted node knows %d links two periods after restart, want all 5 (full fallback late?)", got)
	}
	// And the repaired ack chain re-anchors: subsequent periods go back
	// to cheap deltas, observable as DeltaHeartbeatsSent resuming on a
	// neighbor of the restarted node.
	nb := g.Neighbors(2)[0]
	before := nodes[nb].Stats().DeltaHeartbeatsSent
	c.ticks(2, false)
	if nodes[nb].Stats().DeltaHeartbeatsSent == before {
		t.Error("neighbor never resumed delta heartbeats after the full-snapshot repair")
	}
}

// TestEarliestMarkHeartbeatStillMerges: a mark FileStorage accepts can
// date from the earliest instant an int64 of nanoseconds holds. The
// downtime to now then saturates at ~292 years, which at δ = 1 ms books
// some 9·10¹² missed ticks, past what an estimator record may carry; the
// evidence saturates at bayes.MaxEvidence instead, so the restored node's
// heartbeat still decodes at its neighbour, which merges it and adopts
// the saturated estimate.
func TestEarliestMarkHeartbeatStillMerges(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mark")
	if err := os.WriteFile(path, []byte(strconv.FormatInt(math.MinInt64, 10)+" 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := topology.Line(2)
	if err != nil {
		t.Fatal(err)
	}
	fabric := transport.NewFabric(transport.FabricOptions{})
	defer func() { _ = fabric.Close() }()
	restored := newTestNode(t, Config{ID: 0, NumProcs: 2, Neighbors: g.Neighbors(0),
		Storage: NewFileStorage(path), HeartbeatEvery: time.Millisecond}, fabric.Endpoint(0))
	peer := newTestNode(t, Config{ID: 1, NumProcs: 2, Neighbors: g.Neighbors(1)}, fabric.Endpoint(1))
	restored.mu.Lock()
	booked := restored.core.view.ProcEstimator(0).Observations()
	restored.mu.Unlock()
	if booked != bayes.MaxEvidence {
		t.Fatalf("the restored node booked %d observations of itself, want the %d bound", booked, bayes.MaxEvidence)
	}

	settleTicks([]*Node{restored, peer}, 1)
	s := peer.Stats()
	if s.HeartbeatsReceived == 0 || s.DecodeErrors != 0 || s.SnapshotMergeErrors != 0 {
		t.Fatalf("the peer received %d heartbeats with %d decode and %d merge errors", s.HeartbeatsReceived, s.DecodeErrors, s.SnapshotMergeErrors)
	}
	peer.mu.Lock()
	adopted := peer.core.view.ProcEstimator(0).Observations()
	peer.mu.Unlock()
	if adopted != bayes.MaxEvidence {
		t.Errorf("the peer holds %d observations of the restored node, want the %d it shipped", adopted, bayes.MaxEvidence)
	}
}
