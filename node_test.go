package adaptivecast_test

import (
	"context"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"adaptivecast"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// line2 builds a two-node line over a fresh fabric through the public
// constructors only.
func line2(t *testing.T, opts0, opts1 []adaptivecast.Option) (*adaptivecast.Fabric, *adaptivecast.Node, *adaptivecast.Node) {
	t.Helper()
	g, err := adaptivecast.Line(2)
	if err != nil {
		t.Fatal(err)
	}
	fabric := adaptivecast.NewFabric(adaptivecast.FabricOptions{})
	n0, err := adaptivecast.NewNode(fabric.Endpoint(0), 2, g.Neighbors(0), opts0...)
	if err != nil {
		t.Fatal(err)
	}
	n1, err := adaptivecast.NewNode(fabric.Endpoint(1), 2, g.Neighbors(1), opts1...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = n0.Close()
		_ = n1.Close()
		_ = fabric.Close()
	})
	return fabric, n0, n1
}

// TestNodeRunsPaperPrecision: U is the paper's constant, 100, with no
// option to change it, and a node built without options runs the
// estimator and estimates itself strictly inside (0, 1) after a tick.
func TestNodeRunsPaperPrecision(t *testing.T) {
	g, err := adaptivecast.Line(2)
	if err != nil {
		t.Fatal(err)
	}
	fabric := adaptivecast.NewFabric(adaptivecast.FabricOptions{})
	defer func() { _ = fabric.Close() }()
	nd, err := adaptivecast.NewNode(fabric.Endpoint(0), 2, g.Neighbors(0))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = nd.Close() }()
	nd.Tick()
	if mean, _ := nd.CrashEstimate(0); !(mean > 0 && mean < 1) {
		t.Errorf("a node estimates itself at %v", mean)
	}
}

// TestStableStorageOption drives the crash-recovery clock-mark protocol
// through WithStableStorage and WithClock: the node marks the storage on
// every tick, and a restarted incarnation books the downtime as missed
// periods, degrading its own crash estimate.
func TestStableStorageOption(t *testing.T) {
	g, err := adaptivecast.Line(2)
	if err != nil {
		t.Fatal(err)
	}
	fabric := adaptivecast.NewFabric(adaptivecast.FabricOptions{})
	defer func() { _ = fabric.Close() }()

	storage := &adaptivecast.MemStorage{}
	t0 := time.Now()
	first, err := adaptivecast.NewNode(fabric.Endpoint(0), 2, g.Neighbors(0),
		adaptivecast.WithStableStorage(storage),
		adaptivecast.WithHeartbeat(10*time.Millisecond),
		adaptivecast.WithClock(func() time.Time { return t0 }))
	if err != nil {
		t.Fatal(err)
	}
	freshMean, _ := first.CrashEstimate(0)
	first.Tick()
	if _, _, ok, err := storage.LoadMark(); err != nil || !ok {
		t.Fatalf("tick did not persist a clock mark (ok=%v err=%v)", ok, err)
	}
	_ = first.Close()

	// Restart 100 heartbeat periods later: the downtime must be booked as
	// missed ticks, raising the node's estimate of its own crash rate.
	second, err := adaptivecast.NewNode(fabric.Endpoint(0), 2, g.Neighbors(0),
		adaptivecast.WithStableStorage(storage),
		adaptivecast.WithHeartbeat(10*time.Millisecond),
		adaptivecast.WithClock(func() time.Time { return t0.Add(time.Second) }))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = second.Close() }()
	recoveredMean, _ := second.CrashEstimate(0)
	if recoveredMean <= freshMean {
		t.Errorf("recovered self crash estimate %v not above fresh %v", recoveredMean, freshMean)
	}
}

// TestExactlyOnceLogOption crashes a consumer and restarts it with its
// durable log via WithExactlyOnceLog: replays are suppressed, new events
// delivered.
func TestExactlyOnceLogOption(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "consumer.dedup")
	g, err := adaptivecast.Line(2)
	if err != nil {
		t.Fatal(err)
	}

	// First incarnation: deliver two events.
	fabric := adaptivecast.NewFabric(adaptivecast.FabricOptions{})
	dlog, err := adaptivecast.OpenExactlyOnceLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	producer, err := adaptivecast.NewNode(fabric.Endpoint(0), 2, g.Neighbors(0))
	if err != nil {
		t.Fatal(err)
	}
	consumer, err := adaptivecast.NewNode(fabric.Endpoint(1), 2, g.Neighbors(1),
		adaptivecast.WithExactlyOnceLog(dlog))
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{"event-1", "event-2"} {
		if _, err := producer.Broadcast([]byte(body)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return consumer.Stats().Delivered == 2 },
		"consumer never delivered the first two events")
	_ = consumer.Close()
	_ = producer.Close()
	if err := dlog.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fabric.Close(); err != nil {
		t.Fatal(err)
	}

	// Second incarnation: the producer restarts too and replays seqs 1-2
	// before sending a fresh event 3.
	fabric2 := adaptivecast.NewFabric(adaptivecast.FabricOptions{})
	defer func() { _ = fabric2.Close() }()
	dlog2, err := adaptivecast.OpenExactlyOnceLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dlog2.Close() }()
	producer2, err := adaptivecast.NewNode(fabric2.Endpoint(0), 2, g.Neighbors(0))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = producer2.Close() }()
	consumer2, err := adaptivecast.NewNode(fabric2.Endpoint(1), 2, g.Neighbors(1),
		adaptivecast.WithExactlyOnceLog(dlog2))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = consumer2.Close() }()
	for _, body := range []string{"event-1", "event-2", "event-3"} {
		if _, err := producer2.Broadcast([]byte(body)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool {
		st := consumer2.Stats()
		return st.SuppressedReplays == 2 && st.Delivered == 1
	}, "replays not suppressed exactly-once across the crash")
}

// TestPiggybackOption shows WithPiggyback spreading knowledge on data
// frames: a node that never heard a heartbeat about process 0 still
// refines its estimate when a piggybacked broadcast passes through.
func TestPiggybackOption(t *testing.T) {
	for _, piggyback := range []bool{true, false} {
		g, err := adaptivecast.Line(3) // 0 — 1 — 2
		if err != nil {
			t.Fatal(err)
		}
		fabric := adaptivecast.NewFabric(adaptivecast.FabricOptions{})
		var opts1 []adaptivecast.Option
		if piggyback {
			opts1 = append(opts1, adaptivecast.WithPiggyback())
		}
		nodes := make([]*adaptivecast.Node, 3)
		for i := range nodes {
			var opts []adaptivecast.Option
			if i == 1 {
				opts = opts1
			}
			nd, err := adaptivecast.NewNode(fabric.Endpoint(adaptivecast.NodeID(i)), 3,
				g.Neighbors(adaptivecast.NodeID(i)), opts...)
			if err != nil {
				t.Fatal(err)
			}
			nodes[i] = nd
		}

		// Node 0 heartbeats its only neighbor (node 1); node 2 hears
		// nothing about process 0 directly.
		nodes[0].Tick()
		waitFor(t, 5*time.Second, func() bool { return nodes[1].Stats().HeartbeatsReceived == 1 },
			"node 1 never received node 0's heartbeat")
		_, distBefore := nodes[2].CrashEstimate(0)

		// Node 1 broadcasts; with piggybacking the data frame carries its
		// merged view, including node 0's fresher self-estimate.
		if _, err := nodes[1].Broadcast([]byte("x")); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 5*time.Second, func() bool { return nodes[2].Stats().Delivered == 1 },
			"node 2 never delivered the broadcast")
		_, distAfter := nodes[2].CrashEstimate(0)

		if piggyback && distAfter >= distBefore {
			t.Errorf("piggyback: distortion of node 0's estimate did not improve (%d -> %d)",
				distBefore, distAfter)
		}
		if !piggyback && distAfter != distBefore {
			t.Errorf("no piggyback: distortion changed without knowledge flow (%d -> %d)",
				distBefore, distAfter)
		}

		for _, nd := range nodes {
			_ = nd.Close()
		}
		_ = fabric.Close()
	}
}

// TestSubscribeBackpressure verifies the documented overload behavior: a
// subscriber that stalls past the delivery buffer causes further
// deliveries to be dropped, counted, and reported to the observer.
func TestSubscribeBackpressure(t *testing.T) {
	var dropped atomic.Int64
	_, n0, _ := line2(t,
		[]adaptivecast.Option{
			adaptivecast.DeliveryLimitForTest(1, len("b0")),
			adaptivecast.WithObserver(adaptivecast.Observer{
				OnDrop: func(adaptivecast.Delivery) { dropped.Add(1) },
			}),
		}, nil)

	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	var handled atomic.Int64
	cancel := n0.Subscribe(func(adaptivecast.Delivery) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-gate
		handled.Add(1)
	})
	defer cancel()

	// First broadcast occupies the handler...
	if _, err := n0.Broadcast([]byte("b0")); err != nil {
		t.Fatal(err)
	}
	<-started
	// ...the second fills the one-delivery bound, the next 8 must drop.
	for i := 0; i < 9; i++ {
		if _, err := n0.Broadcast([]byte("b")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return n0.Stats().DroppedDeliveries == 8 },
		"expected exactly 8 dropped deliveries")
	if got := dropped.Load(); got != 8 {
		t.Errorf("observer saw %d drops, want 8", got)
	}

	// Release the subscriber: the two accepted deliveries drain.
	close(gate)
	waitFor(t, 5*time.Second, func() bool { return handled.Load() == 2 },
		"accepted deliveries did not drain after the stall")
}

// TestObserverDeliverAndTreeRebuild checks the remaining observer hooks:
// OnDeliver on every queued delivery and OnTreeRebuild when a broadcast
// plans a fresh MRT.
func TestObserverDeliverAndTreeRebuild(t *testing.T) {
	var delivers atomic.Int64
	var rebuild atomic.Value
	_, n0, n1 := line2(t, []adaptivecast.Option{
		adaptivecast.WithObserver(adaptivecast.Observer{
			OnDeliver:     func(adaptivecast.Delivery) { delivers.Add(1) },
			OnTreeRebuild: func(tr adaptivecast.TreeRebuild) { rebuild.Store(tr) },
		}),
	}, nil)

	// Exchange enough heartbeats for node 0's view to span the line.
	for i := 0; i < 10; i++ {
		n0.Tick()
		n1.Tick()
		time.Sleep(2 * time.Millisecond)
	}

	r, err := n0.Broadcast([]byte("observed"))
	if err != nil {
		t.Fatal(err)
	}
	if delivers.Load() != 1 {
		t.Errorf("OnDeliver fired %d times for the local delivery, want 1", delivers.Load())
	}
	tr, ok := rebuild.Load().(adaptivecast.TreeRebuild)
	if !ok {
		t.Fatal("OnTreeRebuild never fired")
	}
	if tr.Seq != r.Seq || tr.Edges != 1 || tr.Planned != r.Planned {
		t.Errorf("TreeRebuild = %+v, want seq %d, 1 edge, planned %d", tr, r.Seq, r.Planned)
	}
	if r.Planned < 1 {
		t.Errorf("planned = %d, want >= 1", r.Planned)
	}
}

// TestBroadcastCtx covers both sides of the context-aware broadcast.
func TestBroadcastCtx(t *testing.T) {
	_, n0, _ := line2(t, nil, nil)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := n0.BroadcastCtx(cancelled, []byte("late")); err == nil {
		t.Error("cancelled context should fail the broadcast")
	}

	r, err := n0.BroadcastCtx(context.Background(), []byte("on time"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Origin != 0 || r.Seq == 0 {
		t.Errorf("receipt = %+v, want origin 0 and a sequence number", r)
	}
}

// TestSubscribeCancel verifies that a cancelled subscription stops
// receiving while others keep going.
func TestSubscribeCancel(t *testing.T) {
	_, n0, _ := line2(t, nil, nil)

	var a, b atomic.Int64
	cancelA := n0.Subscribe(func(adaptivecast.Delivery) { a.Add(1) })
	n0.Subscribe(func(adaptivecast.Delivery) { b.Add(1) })

	if _, err := n0.Broadcast([]byte("first")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return a.Load() == 1 && b.Load() == 1 },
		"both subscribers should see the first broadcast")

	cancelA()
	if _, err := n0.Broadcast([]byte("second")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return b.Load() == 2 },
		"remaining subscriber should see the second broadcast")
	if a.Load() != 1 {
		t.Errorf("cancelled subscriber saw %d deliveries, want 1", a.Load())
	}
}

// TestWithPlanCacheOption checks the public wiring of the plan cache:
// repeated same-view broadcasts count hits.
func TestWithPlanCacheOption(t *testing.T) {
	_, n0, _ := line2(t, nil, nil)
	for i := 0; i < 3; i++ {
		if _, err := n0.Broadcast([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	st := n0.Stats()
	if st.PlanCacheHits+st.PlanCacheMisses != 3 {
		t.Errorf("default node: hits %d + misses %d, want 3 planned broadcasts counted",
			st.PlanCacheHits, st.PlanCacheMisses)
	}
	if st.PlanCacheHits < 2 {
		t.Errorf("default node: PlanCacheHits = %d, want >= 2 for an unchanged view", st.PlanCacheHits)
	}
}
