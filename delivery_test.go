package adaptivecast_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaptivecast"
)

// TestFrozenSubscriberLosesNothing: a subscriber that stops taking
// deliveries for a whole burst loses none of it. Every node's handler
// blocks on a gate while two origins issue 1,000 broadcasts; once every
// node has accepted every broadcast, its lanes are idle and the fabric is
// quiet, the gate opens, and every node must hand its subscriber every
// (origin, seq) once, in per-origin order, with nothing dropped. A
// preallocated 128-slot delivery channel dropped all but 129 of them.
func TestFrozenSubscriberLosesNothing(t *testing.T) {
	const procs, perOrigin = 6, 500
	origins := []adaptivecast.NodeID{0, procs - 1}
	const each = perOrigin * 2 // deliveries every node owes its subscriber

	// A line with no heartbeats: every broadcast floods, and a relay never
	// echoes to its sender, so no node receives a frame twice.
	g, err := adaptivecast.Line(procs)
	if err != nil {
		t.Fatal(err)
	}
	fabric := adaptivecast.NewFabric(adaptivecast.FabricOptions{QueueSize: 1 << 16})
	t.Cleanup(func() { _ = fabric.Close() })

	// settled counts deliveries accepted or dropped, cluster-wide.
	var settled atomic.Int64
	allSettled := make(chan struct{})
	settle := func(adaptivecast.Delivery) {
		if settled.Add(1) == procs*each {
			close(allSettled)
		}
	}
	gate := make(chan struct{})
	var openGate sync.Once
	got := make([][]adaptivecast.Delivery, procs) // each written by its node's dispatcher only
	var handled sync.WaitGroup
	handled.Add(procs)
	nodes := make([]*adaptivecast.Node, procs)
	for i := range nodes {
		id := adaptivecast.NodeID(i)
		nd, err := adaptivecast.NewNode(fabric.Endpoint(id), procs, g.Neighbors(id),
			adaptivecast.WithLaneQueueDepth(1<<12),
			adaptivecast.WithObserver(adaptivecast.Observer{OnDeliver: settle, OnDrop: settle}))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = nd.Close() })
		nd.Subscribe(func(d adaptivecast.Delivery) {
			<-gate
			got[i] = append(got[i], d)
			if len(got[i]) == each {
				handled.Done()
			}
		})
		nodes[i] = nd
	}
	// Runs first: Close waits for a handler held at the gate.
	t.Cleanup(func() { openGate.Do(func() { close(gate) }) })

	for s := 0; s < perOrigin; s++ {
		for _, o := range origins {
			if _, err := nodes[o].Broadcast([]byte("frozen")); err != nil {
				t.Fatal(err)
			}
		}
	}
	select {
	case <-allSettled:
	case <-time.After(30 * time.Second):
		t.Fatalf("%d of %d deliveries were accepted or dropped", settled.Load(), procs*each)
	}
	received := 0
	for i, nd := range nodes {
		if !nd.WaitSendIdle(10 * time.Second) {
			t.Fatalf("node %d's lanes never went idle", i)
		}
		st := nd.Stats()
		if st.DroppedDeliveries != 0 || st.Delivered != each {
			t.Fatalf("node %d with its subscriber frozen: Delivered %d, DroppedDeliveries %d; want %d and 0",
				i, st.Delivered, st.DroppedDeliveries, each)
		}
		received += st.DataReceived
	}
	// Every frame sent was a first receipt, so the fabric is quiet once
	// every one has been received.
	if fs := fabric.Stats(); fs.Sent != received || fs.Lost+fs.FaultDrops+fs.Overflows != 0 {
		t.Fatalf("fabric %+v, %d frames received: the fabric is not quiet", fs, received)
	}

	openGate.Do(func() { close(gate) })
	done := make(chan struct{})
	go func() {
		handled.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("the subscribers never received every delivery")
	}
	for i := range nodes {
		last := map[adaptivecast.NodeID]uint64{}
		for _, d := range got[i] {
			if d.Seq != last[d.Origin]+1 {
				t.Fatalf("node %d: origin %d seq %d after seq %d", i, d.Origin, d.Seq, last[d.Origin])
			}
			last[d.Origin] = d.Seq
		}
		for _, o := range origins {
			if last[o] != perOrigin {
				t.Fatalf("node %d: origin %d ends at seq %d, want %d", i, o, last[o], perOrigin)
			}
		}
	}
}
