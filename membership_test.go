package adaptivecast_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"adaptivecast"
)

func tickCluster(c *adaptivecast.Cluster, periods int) {
	for p := 0; p < periods; p++ {
		c.Tick()
		time.Sleep(2 * time.Millisecond)
	}
}

// drainCluster takes every delivery node id has queued, without waiting:
// Next with a done context returns what is queued and never blocks.
func drainCluster(c *adaptivecast.Cluster, id adaptivecast.NodeID) []adaptivecast.Delivery {
	queued, cancel := context.WithCancel(context.Background())
	cancel()
	var out []adaptivecast.Delivery
	for {
		d, err := c.Node(id).Next(queued)
		if err != nil {
			return out
		}
		out = append(out, d)
	}
}

// TestClusterAddNodeDeliversAndForwards is the acceptance-criteria test:
// a node added to a running cluster via AddNode delivers broadcasts
// within 3 heartbeat periods — and, placed as the only bridge to a second
// joiner, forwards them too.
func TestClusterAddNodeDeliversAndForwards(t *testing.T) {
	line, err := adaptivecast.Line(2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := adaptivecast.NewCluster(adaptivecast.ClusterConfig{Topology: line})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	tickCluster(c, 20) // converge the original pair

	// First joiner hangs off node 1; second joiner hangs off the first,
	// making the first joiner the only route to it.
	first, err := c.AddNode(1)
	if err != nil {
		t.Fatal(err)
	}
	tickCluster(c, 3)
	second, err := c.AddNode(first)
	if err != nil {
		t.Fatal(err)
	}
	tickCluster(c, 3)

	if got := c.Epoch(); got != 2 {
		t.Fatalf("cluster epoch = %d after two joins, want 2", got)
	}
	for id := adaptivecast.NodeID(0); int(id) < c.NumNodes(); id++ {
		if got := c.Node(id).Epoch(); got != 2 {
			t.Errorf("node %d at epoch %d, want 2", id, got)
		}
		drainCluster(c, id)
	}

	// Within 3 periods of the last join, a broadcast from an original
	// member must reach both joiners — the second only via the first.
	forwardedBefore := c.Stats(first).DataSent
	if _, _, err := c.Broadcast(0, []byte("grown")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	for _, id := range []adaptivecast.NodeID{1, first, second} {
		if ds := drainCluster(c, id); len(ds) == 0 {
			t.Errorf("node %d missed the post-join broadcast", id)
		}
	}
	if got := c.Stats(first).DataSent; got <= forwardedBefore {
		t.Errorf("joiner %d forwarded nothing (DataSent %d -> %d)", first, forwardedBefore, got)
	}
}

// TestClusterRemoveNode covers the leave half: the departed member's
// records vanish from the survivors' knowledge, the epoch advances, and
// broadcasts keep spanning the remaining membership.
func TestClusterRemoveNode(t *testing.T) {
	ring, err := adaptivecast.Ring(5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := adaptivecast.NewCluster(adaptivecast.ClusterConfig{Topology: ring})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	tickCluster(c, 30)
	for id := adaptivecast.NodeID(0); id < 5; id++ {
		if got := len(c.KnownLinks(id)); got != 5 {
			t.Fatalf("node %d knows %d links before removal, want 5", id, got)
		}
	}

	const leaver = adaptivecast.NodeID(2)
	if err := c.RemoveNode(leaver); err != nil {
		t.Fatal(err)
	}
	tickCluster(c, 3)

	if got := c.Epoch(); got != 1 {
		t.Fatalf("cluster epoch = %d after removal, want 1", got)
	}
	if c.Topology().Active(leaver) {
		t.Error("topology still lists the leaver as active")
	}
	survivors := []adaptivecast.NodeID{0, 1, 3, 4}
	for _, id := range survivors {
		if got := c.Node(id).Epoch(); got != 1 {
			t.Errorf("node %d at epoch %d after removal, want 1", id, got)
		}
		for _, l := range c.KnownLinks(id) {
			if l.A == leaver || l.B == leaver {
				t.Errorf("node %d still knows link %v of the departed member", id, l)
			}
		}
		drainCluster(c, id)
	}

	if _, _, err := c.Broadcast(0, []byte("post-removal")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	for _, id := range survivors[1:] {
		if ds := drainCluster(c, id); len(ds) == 0 {
			t.Errorf("survivor %d missed the post-removal broadcast", id)
		}
	}

	// The removed slot stays addressable but inert, and re-removal fails.
	if err := c.RemoveNode(leaver); err == nil {
		t.Error("second removal of the same node should fail")
	}
}

// TestClusterLeaveCannotEraseInFlightJoin pins the ledger-built leave
// announcement: RemoveNode called immediately after AddNode — before any
// member has processed the join flood — must not strand the joiner. The
// leave frame's ID-space size comes from the cluster's graph (which
// already includes the joiner), so members that adopt the higher leave
// epoch first still grow their views over the joiner's slot, and the
// joiner folds in through the stale-epoch repair loop.
func TestClusterLeaveCannotEraseInFlightJoin(t *testing.T) {
	ring, err := adaptivecast.Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := adaptivecast.NewCluster(adaptivecast.ClusterConfig{Topology: ring})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	tickCluster(c, 15)

	// Join and leave back to back, no ticks in between: the join flood is
	// still in the fabric queues when the leave is announced.
	joiner, err := c.AddNode(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveNode(3); err != nil {
		t.Fatal(err)
	}
	tickCluster(c, 6)

	for _, id := range []adaptivecast.NodeID{0, 1, 2, joiner} {
		if got := c.Node(id).Epoch(); got != 2 {
			t.Errorf("node %d at epoch %d, want 2", id, got)
		}
		drainCluster(c, id)
	}
	// The joiner must be a live member: broadcasts reach it and from it.
	if _, _, err := c.Broadcast(1, []byte("after-overtake")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if ds := drainCluster(c, joiner); len(ds) == 0 {
		t.Error("joiner missed the broadcast after an overtaking leave")
	}
	if _, _, err := c.Broadcast(joiner, []byte("from-joiner")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	for _, id := range []adaptivecast.NodeID{0, 1, 2} {
		if ds := drainCluster(c, id); len(ds) == 0 {
			t.Errorf("node %d missed the joiner's broadcast", id)
		}
	}
}

// TestClusterRemoveNodeRejectsDisconnection pins the safety check: a
// removal that would split the remaining members is refused.
func TestClusterRemoveNodeRejectsDisconnection(t *testing.T) {
	line, err := adaptivecast.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := adaptivecast.NewCluster(adaptivecast.ClusterConfig{Topology: line})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	if err := c.RemoveNode(1); err == nil {
		t.Fatal("removing the middle of a line should be rejected")
	}
	if got := c.Epoch(); got != 0 {
		t.Errorf("rejected removal advanced the epoch to %d", got)
	}
}

// TestClusterChurnDeliversEveryProbe drives a ring(4) through a join, a
// leave and another join, broadcasting a probe from the lowest active
// member every 8 periods. A probe within 3 periods after a membership
// change is skipped: a joiner is promised delivery only 3 periods after
// its announcement. Every other probe must reach the membership as it
// stands 3 periods after the probe (members removed since are not
// expected to hold it), the originator included.
func TestClusterChurnDeliversEveryProbe(t *testing.T) {
	ring, err := adaptivecast.Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := adaptivecast.NewCluster(adaptivecast.ClusterConfig{Topology: ring})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	active := func() []adaptivecast.NodeID {
		var out []adaptivecast.NodeID
		for id := adaptivecast.NodeID(0); int(id) < c.NumNodes(); id++ {
			if c.Topology().Active(id) {
				out = append(out, id)
			}
		}
		return out
	}
	type probe struct {
		period, expected int
		seen             map[adaptivecast.NodeID]bool
	}
	probes := map[string]*probe{}
	drain := func() {
		for _, id := range active() {
			for _, d := range drainCluster(c, id) {
				if p := probes[string(d.Body)]; p != nil {
					p.seen[id] = true
				}
			}
		}
	}

	changes := map[int]func() error{
		16: func() error { _, err := c.AddNode(0, 2); return err },
		32: func() error { return c.RemoveNode(1) },
		48: func() error { _, err := c.AddNode(0, 4); return err },
	}
	const periods = 72
	lastChange := -4 // no fold window open at the start
	for period := 0; period < periods; period++ {
		if change := changes[period]; change != nil {
			if err := change(); err != nil {
				t.Fatalf("membership change at period %d: %v", period, err)
			}
			lastChange = period
		}
		if period%8 == 0 && period-lastChange > 3 {
			body := fmt.Sprintf("churn-probe-%d", period)
			if _, _, err := c.Broadcast(active()[0], []byte(body)); err != nil {
				t.Fatalf("probe at period %d: %v", period, err)
			}
			probes[body] = &probe{period: period, seen: map[adaptivecast.NodeID]bool{}}
		}
		tickCluster(c, 1)
		drain()
		for _, p := range probes {
			if period == p.period+3 {
				p.expected = len(active())
			}
		}
	}
	time.Sleep(2 * time.Millisecond)
	drain()

	if got := c.Epoch(); got != 3 {
		t.Errorf("final epoch = %d, want 3", got)
	}
	if got := len(active()); got != 5 || c.NumNodes() != 6 {
		t.Errorf("final membership = %d active of %d slots, want 5 of 6", got, c.NumNodes())
	}
	if len(probes) == 0 {
		t.Fatal("no probes broadcast")
	}
	for body, p := range probes {
		if p.expected == 0 { // a probe within 3 periods of the end
			p.expected = len(active())
		}
		if len(p.seen) < p.expected {
			t.Errorf("%s: delivered at %d members, want the %d members 3 periods after it", body, len(p.seen), p.expected)
		}
	}
}

// TestClusterAddNodeValidation covers the argument checks.
func TestClusterAddNodeValidation(t *testing.T) {
	c := testCluster(t, 3)
	if _, err := c.AddNode(); err == nil {
		t.Error("joiner with no neighbors should fail")
	}
	if _, err := c.AddNode(7); err == nil {
		t.Error("joiner linked to unknown member should fail")
	}
	if err := c.RemoveNode(1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddNode(1); err == nil {
		t.Error("joiner linked to departed member should fail")
	}
}
