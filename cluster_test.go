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
