package node

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"adaptivecast/internal/topology"
	"adaptivecast/internal/transport"
)

// heartbeatsSentAll sums HeartbeatsSent across a cluster.
func heartbeatsSentAll(nodes []*Node) int {
	total := 0
	for _, nd := range nodes {
		total += nd.Stats().HeartbeatsSent
	}
	return total
}

// TestAdaptiveCadenceCutsSteadyStateFrames is the tentpole acceptance
// test: a converged, stable 8-node cluster with adaptive cadence capped
// at 8δ must send at least 4x fewer heartbeat frames per period than the
// fixed-cadence baseline. (The theoretical steady-state factor is 8x;
// the 4x floor leaves room for the occasional sub-epsilon re-stamp that
// snaps a neighbor back to δ for a few periods.)
func TestAdaptiveCadenceCutsSteadyStateFrames(t *testing.T) {
	run := func(cadenceMax int) int {
		g, err := topology.Ring(8)
		if err != nil {
			t.Fatal(err)
		}
		fabric := transport.NewFabric(transport.FabricOptions{})
		defer func() { _ = fabric.Close() }()
		nodes := buildCluster(t, g, fabric, func(i int) Config {
			return Config{AdaptiveCadenceMax: cadenceMax}
		})
		// Converge until posterior drift per period is far below
		// DeltaEpsilon (it decays exponentially): re-stamp snap-backs then
		// become rare enough that the measurement window sees the steady
		// stretched cadence, not the tail of convergence.
		settleTicks(nodes, 600)
		before := heartbeatsSentAll(nodes)
		settleTicks(nodes, 64)
		return heartbeatsSentAll(nodes) - before
	}

	stretched := run(8)
	baseline := run(0)
	if stretched <= 0 || baseline <= 0 {
		t.Fatalf("no heartbeat frames measured: stretched=%d baseline=%d", stretched, baseline)
	}
	if 4*stretched > baseline {
		t.Errorf("adaptive cadence sent %d frames vs %d fixed — want >= 4x fewer (got %.1fx)",
			stretched, baseline, float64(baseline)/float64(stretched))
	}
	t.Logf("heartbeat frames over 64 periods on ring(8): adaptive=%d fixed=%d (%.1fx fewer)",
		stretched, baseline, float64(baseline)/float64(stretched))
}

// TestAdaptiveCadenceStretchesOnSteppedRing is the frame-count test
// above with the timing taken out: the ring runs over mailboxes and the
// test hands every frame over itself, in a fixed order, once every
// node's lanes have flushed, so each period sees exactly the previous
// period's frames. Nothing is lost and nothing arrives late, so a
// neighbor snaps back only on news — and a node that receives news must
// ack it promptly even though split horizon leaves it nothing to echo
// back, or the sender stays at δ for up to a whole stretched interval.
// Converged, the ring should send 8x fewer frames; the 6x floor leaves
// room for about eight snap-back episodes of ~6 frames each in the
// 64-period window.
func TestAdaptiveCadenceStretchesOnSteppedRing(t *testing.T) {
	run := func(cadenceMax int) int {
		g, err := topology.Ring(8)
		if err != nil {
			t.Fatal(err)
		}
		nodes, boxes := make([]*Node, 8), make([]*mailTransport, 8)
		for i := range nodes {
			id := topology.NodeID(i)
			boxes[i] = &mailTransport{sinkTransport: sinkTransport{id: id}}
			nodes[i] = newTestNode(t, Config{ID: id, NumProcs: 8, Neighbors: g.Neighbors(id), AdaptiveCadenceMax: cadenceMax}, boxes[i])
		}
		step := func(periods int) {
			for range periods {
				for _, nd := range nodes {
					nd.Tick()
				}
				for _, nd := range nodes {
					if !nd.WaitSendIdle(5 * time.Second) {
						t.Fatalf("node %d's lanes never flushed", nd.ID())
					}
				}
				for _, box := range boxes {
					for _, m := range box.take() {
						nodes[m.to].handle(m.from, m.frame)
					}
				}
			}
		}
		step(600)
		before := heartbeatsSentAll(nodes)
		step(64)
		return heartbeatsSentAll(nodes) - before
	}
	stretched, baseline := run(8), run(0)
	if stretched <= 0 || 6*stretched > baseline {
		t.Errorf("adaptive cadence sent %d frames vs %d fixed over 64 periods — want >= 6x fewer", stretched, baseline)
	}
	t.Logf("heartbeat frames over 64 periods on a stepped ring(8): adaptive=%d fixed=%d (%.1fx fewer)",
		stretched, baseline, float64(baseline)/float64(stretched))
}

// TestAdaptiveCadenceSnapsBackOnSuspicion pins the safety half of the
// controller: the moment a node suspects any neighbor, its heartbeat
// cadence to everyone returns to δ within that same period, so suspicion
// news never crawls at the stretched pace.
func TestAdaptiveCadenceSnapsBackOnSuspicion(t *testing.T) {
	g, err := topology.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	fabric := transport.NewFabric(transport.FabricOptions{})
	defer func() { _ = fabric.Close() }()
	nodes := buildCluster(t, g, fabric, func(i int) Config {
		return Config{AdaptiveCadenceMax: 4}
	})
	settleTicks(nodes, 400)

	// The middle node must be mostly stretched toward both neighbors by
	// now: over 24 quiet periods it sends well under the 48 frames of a
	// full δ cadence (an occasional re-stamp snap-back episode is fine).
	before := nodes[1].Stats().HeartbeatsSent
	settleTicks(nodes, 24)
	stretchedRate := nodes[1].Stats().HeartbeatsSent - before
	if stretchedRate >= 36 {
		t.Fatalf("middle node sent %d frames over 24 periods — cadence never stretched", stretchedRate)
	}

	// Crash node 2 (stop ticking it). Node 1 declared a stretched cadence
	// to node 2's view, and vice versa, so the suspicion fires after
	// timeout*cadence quiet periods; tick until it does.
	stopNode(nodes[2])
	suspected := func() bool {
		nodes[0].Tick()
		nodes[1].Tick()
		nodes[1].mu.Lock()
		defer nodes[1].mu.Unlock()
		return nodes[1].view.Suspected(2)
	}
	fired := -1
	for p := 0; p < 64; p++ {
		if suspected() {
			fired = p
			break
		}
	}
	if fired < 0 {
		t.Fatal("node 1 never suspected the crashed neighbor")
	}

	// Within one period of the suspicion the cadence is back at δ: every
	// subsequent period node 1 heartbeats both links (the live one and
	// the suspected one) at full rate.
	before = nodes[1].Stats().HeartbeatsSent
	for p := 0; p < 4; p++ {
		nodes[0].Tick()
		nodes[1].Tick()
	}
	if got := nodes[1].Stats().HeartbeatsSent - before; got < 8 {
		t.Errorf("suspecting node sent %d frames over 4 periods, want 8 (full δ cadence on both links)", got)
	}
}

// TestAdaptiveCadenceEstimateParity is the property test: on a random
// lossy schedule, a cluster running adaptive cadence must end with the
// same crash and loss estimates as the fixed-cadence baseline, within
// tolerance — the receiver-side scaling of expected arrivals keeps the
// Bayesian accounting unbiased even though stretched senders consume
// sequence numbers without sending.
func TestAdaptiveCadenceEstimateParity(t *testing.T) {
	for _, seed := range []int64{7, 21, 64} {
		run := func(cadenceMax int) []*Node {
			rng := rand.New(rand.NewSource(seed))
			g, err := topology.RandomConnected(6, 2, rng)
			if err != nil {
				t.Fatal(err)
			}
			fabric := transport.NewFabric(transport.FabricOptions{Seed: seed})
			t.Cleanup(func() { _ = fabric.Close() })
			nodes := buildCluster(t, g, fabric, func(i int) Config {
				return Config{AdaptiveCadenceMax: cadenceMax}
			})
			// Lossy phase: estimates keep moving, so cadence mostly stays
			// at δ but stretch/snap cycles do occur on calm stretches.
			for li := 0; li < g.NumLinks(); li++ {
				l := g.Link(li)
				if err := fabric.SetLoss(l.A, l.B, 0.25); err != nil {
					t.Fatal(err)
				}
			}
			settleTicks(nodes, 200)
			// Calm phase: links go clean, estimates settle, cadence
			// stretches to the cap.
			for li := 0; li < g.NumLinks(); li++ {
				l := g.Link(li)
				if err := fabric.SetLoss(l.A, l.B, 0); err != nil {
					t.Fatal(err)
				}
			}
			settleTicks(nodes, 150)
			return nodes
		}

		adaptive := run(8)
		fixed := run(0)
		for i := range adaptive {
			for p := 0; p < 6; p++ {
				mA, dA := adaptive[i].CrashEstimate(topology.NodeID(p))
				mF, dF := fixed[i].CrashEstimate(topology.NodeID(p))
				if (dA == math.MaxInt32) != (dF == math.MaxInt32) {
					t.Fatalf("seed %d: node %d knows of process %d in one mode only", seed, i, p)
				}
				if math.Abs(mA-mF) > 0.05 {
					t.Errorf("seed %d: node %d crash estimate of %d diverged: adaptive=%v fixed=%v",
						seed, i, p, mA, mF)
				}
			}
			for _, l := range fixed[i].KnownLinks() {
				mF, _, okF := fixed[i].LossEstimate(l)
				mA, _, okA := adaptive[i].LossEstimate(l)
				if !okF || !okA {
					t.Fatalf("seed %d: node %d link %v known in one mode only", seed, i, l)
				}
				if math.Abs(mA-mF) > 0.08 {
					t.Errorf("seed %d: node %d loss estimate of %v diverged: adaptive=%v fixed=%v",
						seed, i, l, mA, mF)
				}
			}
		}
	}
}

// TestAdaptiveCadenceMixedCluster checks one-sided deployment: only some
// nodes stretching must not corrupt anyone's accounting — fixed-cadence
// peers decode the v2 frames, scale their expectations, and nobody is
// falsely suspected or mis-measured.
func TestAdaptiveCadenceMixedCluster(t *testing.T) {
	g, err := topology.Ring(6)
	if err != nil {
		t.Fatal(err)
	}
	fabric := transport.NewFabric(transport.FabricOptions{})
	defer func() { _ = fabric.Close() }()
	nodes := buildCluster(t, g, fabric, func(i int) Config {
		if i%2 == 0 {
			return Config{AdaptiveCadenceMax: 8}
		}
		return Config{}
	})
	settleTicks(nodes, 320)
	for i, nd := range nodes {
		if got := len(nd.KnownLinks()); got != 6 {
			t.Errorf("node %d knows %d links in the mixed cluster, want 6", i, got)
		}
		if nd.Stats().DecodeErrors != 0 {
			t.Errorf("node %d hit %d decode errors on mixed traffic", i, nd.Stats().DecodeErrors)
		}
		// Lossless links: nobody should believe a link is meaningfully
		// lossy just because a neighbor went quiet by design.
		for _, l := range nd.KnownLinks() {
			if mean, dist, ok := nd.LossEstimate(l); ok && dist == 0 && mean > 0.25 {
				t.Errorf("node %d estimates loss %.3f on lossless %v under mixed cadence", i, mean, l)
			}
		}
	}
}

// TestAdaptiveCadenceResumesAfterRestart pins the cadence-persistence
// satellite end to end: a node that stretched its heartbeat cadence to
// the cap persists the per-neighbor intervals alongside its clock mark,
// and after a crash+restart on the same stable storage its first
// re-stretch jumps straight back to the persisted interval instead of
// re-walking the geometric ramp (1 -> 2 -> 4 -> 8).
func TestAdaptiveCadenceResumesAfterRestart(t *testing.T) {
	const cadenceMax = 8
	g, err := topology.Line(2)
	if err != nil {
		t.Fatal(err)
	}
	fabric := transport.NewFabric(transport.FabricOptions{})
	defer func() { _ = fabric.Close() }()
	store := &MemStorage{}
	nodes := buildCluster(t, g, fabric, func(i int) Config {
		c := Config{AdaptiveCadenceMax: cadenceMax}
		if i == 0 {
			c.Storage = store
		}
		return c
	})

	interval := func(nd *Node, to topology.NodeID) int {
		nd.mu.Lock()
		defer nd.mu.Unlock()
		if st := nd.cad[to]; st != nil {
			return st.Interval()
		}
		return 1
	}

	// Converge until node 0 holds the full stretch toward node 1 AND has
	// persisted it (Tick persists the snapshot gathered that period, so
	// check the storage, not just the controller).
	persisted := func() map[topology.NodeID]int {
		_, _, cad, _, err := store.LoadMark()
		if err != nil {
			t.Fatal(err)
		}
		return cad
	}
	stretched := false
	for p := 0; p < 800 && !stretched; p++ {
		settleTicks(nodes, 1)
		stretched = interval(nodes[0], 1) == cadenceMax && persisted()[1] == cadenceMax
	}
	if !stretched {
		t.Fatalf("node 0 never reached and persisted the full stretch: interval=%d persisted=%v",
			interval(nodes[0], 1), persisted())
	}

	// Crash node 0 and restart it on the same endpoint and storage.
	stopNode(nodes[0])
	restarted := newTestNode(t, Config{
		ID: 0, NumProcs: 2, Neighbors: g.Neighbors(0),
		Storage: store, AdaptiveCadenceMax: cadenceMax,
	}, fabric.Endpoint(0))
	pair := []*Node{restarted, nodes[1]}

	// The restarted node re-probes at cadence 1 (its peers ack nothing
	// yet, so early deltas fall back to full snapshots); once node 1
	// proves stable again the first stretch must land on cadenceMax
	// directly — observing any intermediate ramp value is the regression.
	for p := 0; p < 400; p++ {
		settleTicks(pair, 1)
		if iv := interval(restarted, 1); iv > 1 {
			if iv != cadenceMax {
				t.Fatalf("first re-stretch after restart reached %d (period %d), want direct resume to %d",
					iv, p+1, cadenceMax)
			}
			return
		}
	}
	t.Fatal("restarted node never re-stretched within 400 periods")
}
