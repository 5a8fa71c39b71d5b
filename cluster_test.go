package adaptivecast_test

import (
	"testing"
	"time"

	"adaptivecast"
)

func testCluster(t *testing.T, n int) *adaptivecast.Cluster {
	t.Helper()
	ring, err := adaptivecast.Ring(n)
	if err != nil {
		t.Fatal(err)
	}
	c, err := adaptivecast.NewCluster(adaptivecast.ClusterConfig{Topology: ring})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// TestClusterBroadcastBounds covers both sides of the originator range
// check.
func TestClusterBroadcastBounds(t *testing.T) {
	c := testCluster(t, 4)
	if _, _, err := c.Broadcast(-1, []byte("x")); err == nil {
		t.Error("negative originator should fail")
	}
	if _, _, err := c.Broadcast(4, []byte("x")); err == nil {
		t.Error("originator == NumNodes should fail")
	}
	if _, _, err := c.Broadcast(3, []byte("x")); err != nil {
		t.Errorf("in-range originator failed: %v", err)
	}
}

// TestClusterCloseIdempotent closes a cluster twice: the second call must
// be a no-op returning the first result, and the cluster must stay
// queryable.
func TestClusterCloseIdempotent(t *testing.T) {
	c := testCluster(t, 3)
	c.Start()
	time.Sleep(10 * time.Millisecond)
	if err := c.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	// Stats stay readable and broadcasts fail cleanly after close.
	_ = c.Stats(0)
	if _, _, err := c.Broadcast(0, []byte("x")); err == nil {
		t.Error("broadcast after close should fail")
	}
}

// TestClusterAdaptiveCadence drives the WithAdaptiveCadence plumbing
// through the cluster facade: a converged stable cluster must send
// measurably fewer heartbeat frames per period than one period per
// neighbor, while still knowing the full topology.
func TestClusterAdaptiveCadence(t *testing.T) {
	ring, err := adaptivecast.Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := adaptivecast.NewCluster(adaptivecast.ClusterConfig{
		Topology:        ring,
		HeartbeatEvery:  time.Millisecond,
		AdaptiveCadence: 8 * time.Millisecond, // 8δ cap
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	// tick runs whole periods one node at a time: the next node ticks only
	// after every frame the last one sent has left the lanes and been
	// handled, so each handler runs at a fixed point between its node's
	// own Ticks and the frame count below is the cadence controller's,
	// not the scheduler's (a heartbeat handled on the other side of its
	// receiver's Tick from the previous one reads as an empty period and
	// snaps the stretch back). The fabric is lossless, so a node's frames
	// are done exactly when the fabric's surviving copies equal the
	// frames the nodes have accounted for.
	handledAll := func() bool {
		fs := c.Fabric().Stats()
		handled := 0
		for id := 0; id < 4; id++ {
			s := c.Stats(adaptivecast.NodeID(id))
			handled += s.HeartbeatsReceived + s.SnapshotMergeErrors + s.DecodeErrors + s.StaleEpochFrames
		}
		return handled == fs.Sent-fs.Lost-fs.FaultDrops-fs.Overflows
	}
	tick := func(n int) {
		t.Helper()
		for i := 0; i < 4*n; i++ {
			nd := c.Node(adaptivecast.NodeID(i % 4))
			nd.Tick()
			if !nd.WaitSendIdle(5 * time.Second) {
				t.Fatalf("node %d never flushed its heartbeats", i%4)
			}
			for deadline := time.Now().Add(5 * time.Second); !handledAll(); {
				if time.Now().After(deadline) {
					t.Fatalf("node %d's heartbeats were never handled", i%4)
				}
				time.Sleep(20 * time.Microsecond)
			}
		}
	}
	tick(500) // converge and stretch
	before := 0
	for i := 0; i < 4; i++ {
		before += c.Stats(adaptivecast.NodeID(i)).HeartbeatsSent
	}
	tick(32)
	after := 0
	for i := 0; i < 4; i++ {
		after += c.Stats(adaptivecast.NodeID(i)).HeartbeatsSent
	}
	full := 4 * 2 * 32 // nodes × neighbors × periods at fixed cadence
	got := after - before
	if 2*got > full {
		t.Errorf("adaptive cluster sent %d frames over 32 periods, want at most half the fixed %d", got, full)
	}
	t.Logf("adaptive cluster sent %d frames over 32 periods against %d at fixed cadence", got, full)
	for i := 0; i < 4; i++ {
		if got := len(c.KnownLinks(adaptivecast.NodeID(i))); got != 4 {
			t.Errorf("node %d knows %d links under adaptive cadence, want 4", i, got)
		}
	}
}

// TestClusterNodeAccess exercises the thin-layer escape hatch: per-node
// subscription through the cluster.
func TestClusterNodeAccess(t *testing.T) {
	c := testCluster(t, 4)
	got := make(chan adaptivecast.Delivery, 4)
	c.Node(2).Subscribe(func(d adaptivecast.Delivery) { got <- d })

	for i := 0; i < 10; i++ {
		c.Tick()
		time.Sleep(2 * time.Millisecond)
	}
	if _, _, err := c.Broadcast(0, []byte("to the handler")); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-got:
		if string(d.Body) != "to the handler" || d.Origin != 0 {
			t.Errorf("delivery = %+v", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("subscriber on node 2 never fired")
	}
}
