package node

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"adaptivecast/internal/bayes"
	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/topology"
	"adaptivecast/internal/transport"
	"adaptivecast/internal/wire"
)

// settleTicks runs `periods` heartbeat rounds on every node, draining
// the fabric between rounds: frames leaking from one period into the
// next read as instability to the cadence controller (a non-empty or
// unanchored delta), so a fixed sleep makes every timing-sensitive
// assertion flaky under -race on a loaded machine. A round is settled
// exactly when every heartbeat it sent has been handled — the lossless
// case, decided by counting. Under loss (or toward a stopped node) some
// never arrive, and the round falls back to waiting until the receive
// counters have stayed put for a few polls.
func settleTicks(nodes []*Node, periods int) { settle(nodes, periods, false) }

// settleFullTicks is settleTicks on the full-snapshot reference: every
// round starts from forgetAcks, so every heartbeat is a whole view.
func settleFullTicks(nodes []*Node, periods int) { settle(nodes, periods, true) }

// forgetAcks makes the nodes' next Ticks full-snapshot heartbeats, the
// reference the delta path is measured against: with no ack on record
// toward any neighbor, every frame Tick cuts is the since = 0 fallback
// carrying the whole view. peerSeen goes with peerAcked so the frames of
// the coming round ack nothing either — a neighbor that handles one
// before its own Tick would otherwise cut a delta against it. Call it
// while no frame is in flight.
func forgetAcks(nodes []*Node) {
	for _, nd := range nodes {
		nd.peerMu.Lock()
		clear(nd.peerAcked)
		clear(nd.peerSeen)
		nd.peerMu.Unlock()
	}
}

func settle(nodes []*Node, periods int, full bool) {
	// counts returns the heartbeats sent, the heartbeats handled (merged,
	// or rejected with a counted reason), and every receive-side counter.
	counts := func() (sent, handled, received int) {
		for _, nd := range nodes {
			s := nd.Stats()
			sent += s.HeartbeatsSent
			handled += s.HeartbeatsReceived + s.SnapshotMergeErrors + s.DecodeErrors + s.StaleEpochFrames
			received += s.DataReceived + s.EpochChanges
		}
		return sent, handled, handled + received
	}
	for p := 0; p < periods; p++ {
		if full {
			forgetAcks(nodes)
		}
		sent0, handled0, _ := counts()
		start := time.Now()
		for _, nd := range nodes {
			nd.Tick()
		}
		for _, nd := range nodes {
			nd.WaitSendIdle(time.Second) // the period's frames are on the fabric
		}
		// Poll at the pace the machine just ticked at: the handlers still
		// to run do comparable work, so on a slow run (the race detector,
		// a loaded host) a quiet poll still means quiet.
		pause := max(500*time.Microsecond, time.Since(start))
		last, quiet := -1, 0
		for attempt := 0; attempt < 50 && quiet < 3; attempt++ {
			sent, handled, received := counts()
			if handled-handled0 >= sent-sent0 {
				break
			}
			if received == last {
				quiet++
			} else {
				last, quiet = received, 0
			}
			time.Sleep(pause)
		}
	}
}

// TestDeltaHeartbeatSteadyStateBandwidth is the delta acceptance test:
// once estimates converge, delta heartbeats must spend at least 3x fewer
// bytes per period than full-snapshot heartbeats (settleFullTicks, every
// frame the since = 0 fallback). The floor was set when a record was
// ~806 bytes and survives the ~7.5-byte count record on arithmetic, not
// luck: on this ring a full snapshot is a ~15-byte delta header plus 12
// records, ~105 B; a converged delta is the same header plus the ~1.2
// records per frame whose mean still drifts past DeltaEpsilon, ~24 B —
// 4.4x. The floor trips once deltas re-ship more than ~2.6 records per
// frame.
func TestDeltaHeartbeatSteadyStateBandwidth(t *testing.T) {
	run := func(rounds func([]*Node, int)) (steadyBytes int) {
		g, err := topology.Ring(6)
		if err != nil {
			t.Fatal(err)
		}
		fabric := transport.NewFabric(transport.FabricOptions{})
		defer func() { _ = fabric.Close() }()
		nodes := buildCluster(t, g, fabric, nil)
		// Long enough for every estimate's mean to settle well below the
		// delta epsilon (posterior drift shrinks like 1/periods²).
		rounds(nodes, 300)
		before := nodes[0].Stats().HeartbeatBytesSent
		rounds(nodes, 40)
		return nodes[0].Stats().HeartbeatBytesSent - before
	}

	deltaBytes := run(settleTicks)
	fullBytes := run(settleFullTicks)
	if deltaBytes <= 0 || fullBytes <= 0 {
		t.Fatalf("no heartbeat bytes measured: delta=%d full=%d", deltaBytes, fullBytes)
	}
	if 3*deltaBytes > fullBytes {
		t.Errorf("steady-state delta heartbeats spent %dB vs full %dB — want >= 3x saving (got %.1fx)",
			deltaBytes, fullBytes, float64(fullBytes)/float64(deltaBytes))
	}
	t.Logf("steady-state heartbeat bytes over 40 periods: delta=%dB full=%dB (%.0fx smaller)",
		deltaBytes, fullBytes, float64(fullBytes)/float64(deltaBytes))
}

// TestDeltaHeartbeatsStillDetectLoss holds the liveness property deltas
// must not break: near-empty delta frames still carry the heartbeat
// sequence, so the sequence-gap loss accounting keeps converging to the
// true link loss.
func TestDeltaHeartbeatsStillDetectLoss(t *testing.T) {
	const trueLoss = 0.25
	g, err := topology.Line(2)
	if err != nil {
		t.Fatal(err)
	}
	fabric := transport.NewFabric(transport.FabricOptions{Seed: 5})
	defer func() { _ = fabric.Close() }()
	if err := fabric.SetLoss(0, 1, trueLoss); err != nil {
		t.Fatal(err)
	}
	nodes := buildCluster(t, g, fabric, nil)
	settleTicks(nodes, 1200)
	link := topology.NewLink(0, 1)
	for i, nd := range nodes {
		got, _, ok := nd.LossEstimate(link)
		if !ok {
			t.Fatalf("node %d never learned the link", i)
		}
		if math.Abs(got-trueLoss) > 0.07 {
			t.Errorf("node %d loss estimate = %v under delta heartbeats, want ≈%v", i, got, trueLoss)
		}
	}
}

// TestDeltaFullFallbackAfterRestart is the stale-ack scenario: a node
// that lost its state (restart) keeps echoing an empty ack, its neighbor
// falls back to full snapshots, and the restarted node re-learns the
// whole topology — records that converged long ago and would never ride
// a delta again.
func TestDeltaFullFallbackAfterRestart(t *testing.T) {
	g, err := topology.Ring(5)
	if err != nil {
		t.Fatal(err)
	}
	fabric := transport.NewFabric(transport.FabricOptions{})
	defer func() { _ = fabric.Close() }()
	nodes := buildCluster(t, g, fabric, nil)
	settleTicks(nodes, 250) // converge: steady-state deltas are now empty
	for i, nd := range nodes {
		if got := len(nd.KnownLinks()); got != 5 {
			t.Fatalf("node %d knows %d links before restart, want 5", i, got)
		}
	}

	// "Restart" node 3: a fresh incarnation on the same endpoint, with no
	// peer bookkeeping and an empty view.
	nodes[3].Stop()
	replacement, err := New(Config{
		ID: 3, NumProcs: 5, Neighbors: g.Neighbors(3),
	}, fabric.Endpoint(3))
	if err != nil {
		t.Fatal(err)
	}
	nodes[3] = replacement
	settleTicks(nodes, 6)

	// The only way the restarted node can re-learn the far side of the
	// ring is a full-snapshot fallback: its neighbors' deltas no longer
	// carry those long-converged records.
	if got := len(replacement.KnownLinks()); got != 5 {
		t.Errorf("restarted node re-learned %d links, want 5 (full-snapshot fallback broken?)", got)
	}
	if hb := replacement.Stats().HeartbeatsReceived; hb == 0 {
		t.Error("restarted node received no heartbeats")
	}
}

// TestDeltaConvergesToFullBaseline is the property-style schedule test:
// random lossy schedules, one cluster on delta heartbeats and one on
// always-full snapshots (settleFullTicks), must end with the same view of
// the system (up to the documented DeltaEpsilon-scale tolerance) once the
// links calm down and the ack chain repairs.
func TestDeltaConvergesToFullBaseline(t *testing.T) {
	for _, seed := range []int64{3, 17, 99} {
		run := func(rounds func([]*Node, int)) []*Node {
			rng := rand.New(rand.NewSource(seed))
			g, err := topology.RandomConnected(5, 2, rng)
			if err != nil {
				t.Fatal(err)
			}
			fabric := transport.NewFabric(transport.FabricOptions{Seed: seed})
			t.Cleanup(func() { _ = fabric.Close() })
			nodes := buildCluster(t, g, fabric, nil)
			// Lossy phase: both clusters sample the identical loss schedule
			// (same seed, same send order), dropping full and
			// delta heartbeats alike.
			for li := 0; li < g.NumLinks(); li++ {
				l := g.Link(li)
				if err := fabric.SetLoss(l.A, l.B, 0.3); err != nil {
					t.Fatal(err)
				}
			}
			rounds(nodes, 150)
			// Calm phase: no loss; acks repair and estimates settle.
			for li := 0; li < g.NumLinks(); li++ {
				l := g.Link(li)
				if err := fabric.SetLoss(l.A, l.B, 0); err != nil {
					t.Fatal(err)
				}
			}
			rounds(nodes, 100)
			return nodes
		}

		deltaNodes := run(settleTicks)
		fullNodes := run(settleFullTicks)
		for i := range deltaNodes {
			for p := 0; p < 5; p++ {
				mD, dD := deltaNodes[i].CrashEstimate(topology.NodeID(p))
				mF, dF := fullNodes[i].CrashEstimate(topology.NodeID(p))
				if (dD == math.MaxInt32) != (dF == math.MaxInt32) {
					t.Fatalf("seed %d: node %d knows of process %d in one mode only", seed, i, p)
				}
				if math.Abs(mD-mF) > 0.05 {
					t.Errorf("seed %d: node %d estimate of process %d diverged: delta=%v full=%v",
						seed, i, p, mD, mF)
				}
			}
			if dl, fl := len(deltaNodes[i].KnownLinks()), len(fullNodes[i].KnownLinks()); dl != fl {
				t.Errorf("seed %d: node %d knows %d links on deltas vs %d on full", seed, i, dl, fl)
			}
		}
	}
}

// TestSnapshotMergeErrorsSurfaced pins the satellite fix: a frame that
// decodes fine but whose knowledge snapshot the view rejects must be
// counted in its own stat, not silently conflated with decode errors.
func TestSnapshotMergeErrorsSurfaced(t *testing.T) {
	g, err := topology.Line(2)
	if err != nil {
		t.Fatal(err)
	}
	fabric := transport.NewFabric(transport.FabricOptions{})
	defer func() { _ = fabric.Close() }()
	nodes := buildCluster(t, g, fabric, nil)

	// A well-formed frame naming a process outside the receiver's Π.
	evil := mustEncodeHeartbeat(t, 1, 3, 7)
	if err := fabric.Endpoint(1).Send(0, evil); err != nil {
		t.Fatal(err)
	}
	waitStat(t, func() bool { return nodes[0].Stats().SnapshotMergeErrors == 1 },
		"malformed snapshot not surfaced in SnapshotMergeErrors")
	if nodes[0].Stats().DecodeErrors != 0 {
		t.Errorf("DecodeErrors = %d, want 0 (the frame decoded fine)", nodes[0].Stats().DecodeErrors)
	}
}

// TestHeartbeatMustNameItsSender: a heartbeat or delta whose snapshot
// names another sender than the transport delivered it from is refused
// before any merge or bookkeeping and counted in SnapshotMergeErrors.
// Merging it would book its link evidence on (self, Snap.From) — learning
// a link that does not exist — and key the ack maps by a transport ID
// nothing checked. The same frame from its named sender still merges.
func TestHeartbeatMustNameItsSender(t *testing.T) {
	nd, err := New(Config{ID: 0, NumProcs: 4, Neighbors: []topology.NodeID{1}}, &sinkTransport{id: 0})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nd.Stop)
	counts := bayes.State{Intervals: bayes.DefaultIntervals, Succ: 40}
	snap := func(from topology.NodeID) *knowledge.Snapshot {
		return &knowledge.Snapshot{From: from, Seq: 5, Procs: []knowledge.ProcRecord{{ID: 3, Dist: 1, Est: counts}}}
	}
	delta := func(from topology.NodeID) []byte {
		b, err := wire.Encode(&wire.Frame{Kind: wire.FrameKnowledgeDelta,
			Delta: &wire.KnowledgeDelta{Snap: snap(from), Ver: 7, Ack: 2, Caps: wire.CapsCounts}})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	full, err := wire.Encode(&wire.Frame{Kind: wire.FrameHeartbeat, Heartbeat: snap(2), Caps: wire.CapsCounts})
	if err != nil {
		t.Fatal(err)
	}
	peerKeys := func() int {
		nd.peerMu.Lock()
		defer nd.peerMu.Unlock()
		return len(nd.peerSeen) + len(nd.peerAcked)
	}

	// Transport sender 1 claims to be 2, in a delta and in a full heartbeat.
	nd.handle(1, delta(2))
	nd.handle(1, full)
	// Transport senders nobody knows claim to be the neighbor.
	for from := topology.NodeID(1000); from < 1005; from++ {
		nd.handle(from, delta(1))
	}
	s := nd.Stats()
	if s.SnapshotMergeErrors != 7 || s.HeartbeatsReceived != 0 {
		t.Errorf("7 frames naming another sender: %d merge errors, %d heartbeats merged; want 7 and 0",
			s.SnapshotMergeErrors, s.HeartbeatsReceived)
	}
	if links := nd.KnownLinks(); len(links) != 1 {
		t.Errorf("the node knows links %v, want only its own link to 1", links)
	}
	if _, dist := nd.CrashEstimate(3); dist != math.MaxInt32 {
		t.Errorf("process 3 is known at distortion %d from a refused frame", dist)
	}
	if got := peerKeys(); got != 0 {
		t.Errorf("refused frames left %d ack-map entries", got)
	}

	// The honest frame merges and is acked.
	nd.handle(1, delta(1))
	if s := nd.Stats(); s.HeartbeatsReceived != 1 || s.SnapshotMergeErrors != 7 {
		t.Errorf("the honest delta: %d heartbeats merged, %d merge errors; want 1 and 7", s.HeartbeatsReceived, s.SnapshotMergeErrors)
	}
	if _, dist := nd.CrashEstimate(3); dist != 2 {
		t.Errorf("process 3 at distortion %d after the honest delta, want 2", dist)
	}
	nd.peerMu.Lock()
	seen, acked := nd.peerSeen[1], nd.peerAcked[1]
	nd.peerMu.Unlock()
	if seen != 7 || acked != 2 || peerKeys() != 2 {
		t.Errorf("after the honest delta seen=%d acked=%d over %d entries, want 7, 2 over 2", seen, acked, peerKeys())
	}
}

func waitStat(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal(msg)
}

// mustEncodeHeartbeat builds a well-formed heartbeat frame from `from`
// whose snapshot names process `badID` — wire-valid, knowledge-invalid.
func mustEncodeHeartbeat(t *testing.T, from topology.NodeID, seq uint64, badID topology.NodeID) []byte {
	t.Helper()
	frame, err := wire.Encode(&wire.Frame{Kind: wire.FrameHeartbeat, Heartbeat: &knowledge.Snapshot{
		From: from,
		Seq:  seq,
		Procs: []knowledge.ProcRecord{
			{ID: badID, Dist: 1, Est: bayes.MustNew(4).State()},
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return frame
}
