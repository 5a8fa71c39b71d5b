package node

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"adaptivecast/internal/topology"
	"adaptivecast/internal/transport"
)

// poolEncodes returns how many frame encodes a node has performed
// through its pooled datapath (hit or miss — the sum counts encodes, so
// it is immune to sync.Pool eviction).
func poolEncodes(nd *Node) int {
	s := nd.Stats()
	return s.EncodePoolHits + s.EncodePoolMisses
}

// TestBroadcastEncodesOnce pins the encode-once fix: one Broadcast
// encodes exactly one frame regardless of fan-out, on both the flood
// fallback (unconverged) and the planned-tree path. forward() and
// flood() used to each re-encode per call site.
func TestBroadcastEncodesOnce(t *testing.T) {
	g, err := topology.Ring(5)
	if err != nil {
		t.Fatal(err)
	}
	fabric := transport.NewFabric(transport.FabricOptions{})
	defer func() { _ = fabric.Close() }()
	nodes := buildCluster(t, g, fabric, nil)
	defer func() {
		for _, nd := range nodes {
			nd.Stop()
		}
	}()

	// Unconverged: Broadcast floods to both ring neighbors.
	for i := 1; i <= 3; i++ {
		before := poolEncodes(nodes[0])
		if _, _, err := nodes[0].Broadcast([]byte("flood")); err != nil {
			t.Fatal(err)
		}
		if got := poolEncodes(nodes[0]) - before; got != 1 {
			t.Fatalf("flood broadcast %d performed %d encodes, want exactly 1", i, got)
		}
	}

	// Converged: Broadcast forwards over the planned tree.
	settleTicks(nodes, 30)
	before := poolEncodes(nodes[0])
	if _, planned, err := nodes[0].Broadcast([]byte("tree")); err != nil {
		t.Fatal(err)
	} else if planned == 0 {
		t.Fatal("converged broadcast planned no copies")
	}
	if got := poolEncodes(nodes[0]) - before; got != 1 {
		t.Fatalf("tree broadcast performed %d encodes, want exactly 1", got)
	}
}

// TestRelayReusesInboundFrame: on an owning transport (the Fabric) a
// non-piggybacking relay forwards the inbound bytes verbatim — its
// encode pool is never touched — and the broadcast still reaches
// everyone.
func TestRelayReusesInboundFrame(t *testing.T) {
	g, err := topology.Ring(3)
	if err != nil {
		t.Fatal(err)
	}
	fabric := transport.NewFabric(transport.FabricOptions{})
	defer func() { _ = fabric.Close() }()
	nodes := buildCluster(t, g, fabric, nil)
	defer func() {
		for _, nd := range nodes {
			nd.Stop()
		}
	}()

	if _, _, err := nodes[0].Broadcast([]byte("verbatim")); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{1, 2} {
		d := waitDelivery(t, nodes[id])
		if string(d.Body) != "verbatim" {
			t.Fatalf("node %d delivered %q", id, d.Body)
		}
	}
	time.Sleep(5 * time.Millisecond) // let the relays finish forwarding
	for _, id := range []int{1, 2} {
		if got := poolEncodes(nodes[id]); got != 0 {
			t.Errorf("relay %d performed %d encodes; a verbatim relay must not re-serialize", id, got)
		}
	}
}

// TestPiggybackRelaySplices: a piggybacking relay re-serializes only its
// own snapshot (one pooled encode via the splice), and the spliced
// frames decode cleanly downstream — deliveries arrive and no snapshot
// merge is rejected.
func TestPiggybackRelaySplices(t *testing.T) {
	g, err := topology.Line(3) // 0-1-2: node 1 must relay for 2
	if err != nil {
		t.Fatal(err)
	}
	fabric := transport.NewFabric(transport.FabricOptions{})
	defer func() { _ = fabric.Close() }()
	nodes := buildCluster(t, g, fabric, func(i int) Config {
		return Config{Piggyback: true}
	})
	defer func() {
		for _, nd := range nodes {
			nd.Stop()
		}
	}()

	if _, _, err := nodes[0].Broadcast([]byte("spliced")); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{1, 2} {
		d := waitDelivery(t, nodes[id])
		if string(d.Body) != "spliced" {
			t.Fatalf("node %d delivered %q", id, d.Body)
		}
	}
	time.Sleep(5 * time.Millisecond)
	if got := poolEncodes(nodes[1]); got < 1 {
		t.Errorf("piggybacking relay performed %d pooled encodes, want >= 1 (the splice)", got)
	}
	for i, nd := range nodes {
		if s := nd.Stats(); s.SnapshotMergeErrors != 0 || s.DecodeErrors != 0 {
			t.Errorf("node %d: %d merge / %d decode errors on spliced frames",
				i, s.SnapshotMergeErrors, s.DecodeErrors)
		}
	}
}

// holdTransport passes every send through to the transport it wraps,
// but the first waits until release is closed: what the lane scheduler
// queues meanwhile piles up behind that flush and leaves in the next.
type holdTransport struct {
	transport.Transport
	entered chan struct{} // receives once, when the held send begins
	release chan struct{}
	once    sync.Once
}

func (h *holdTransport) hold() {
	h.once.Do(func() {
		h.entered <- struct{}{}
		<-h.release
	})
}

func (h *holdTransport) Send(to topology.NodeID, frame []byte) error {
	h.hold()
	return h.Transport.Send(to, frame)
}

func (h *holdTransport) SendN(to topology.NodeID, frame []byte, n int) error {
	h.hold()
	_, err := transport.SendN(h.Transport, to, frame, n)
	return err
}

func (h *holdTransport) SendFrames(to topology.NodeID, batch []transport.FrameBatch) error {
	h.hold()
	_, err := transport.SendFrames(h.Transport, to, batch)
	return err
}

// TestAggregationWindowPreservesOrderAndSet: broadcasts that queue while
// the peer's drain is busy leave as one coalesced flush, and still reach
// the peer as the same delivery set, in per-origin order. The sender's
// transport holds the first flush, so the other frames provably queue.
func TestAggregationWindowPreservesOrderAndSet(t *testing.T) {
	const msgs = 20
	g, err := topology.Line(2)
	if err != nil {
		t.Fatal(err)
	}
	fabric := transport.NewFabric(transport.FabricOptions{})
	defer func() { _ = fabric.Close() }()
	held := &holdTransport{entered: make(chan struct{}), release: make(chan struct{})}
	nodes := buildClusterOver(t, g, fabric, Config{DeliveryBuffer: msgs + 4},
		func(i int, tr transport.Transport) transport.Transport {
			if i == 0 {
				held.Transport = tr
				return held
			}
			return tr
		})
	defer func() {
		for _, nd := range nodes {
			nd.Stop()
		}
	}()

	for i := 0; i < msgs; i++ {
		if _, _, err := nodes[0].Broadcast([]byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			<-held.entered // the drain is blocked inside the first flush
		}
	}
	close(held.release)

	for i := 0; i < msgs; i++ {
		d := waitDelivery(t, nodes[1])
		if d.Origin != 0 || d.Seq != uint64(i+1) || string(d.Body) != fmt.Sprintf("m%d", i) {
			t.Fatalf("delivery %d = origin %d seq %d %q; coalescing must preserve the set and per-origin order",
				i, d.Origin, d.Seq, d.Body)
		}
	}
	s := nodes[0].Stats()
	if s.CoalescedFlushes != 1 || s.CoalescedFrames != msgs-1 {
		t.Errorf("stats = %d coalesced flushes / %d frames, want the %d queued frames in 1 flush",
			s.CoalescedFlushes, s.CoalescedFrames, msgs-1)
	}
	if s.LaneDrops != (LaneDrops{}) {
		t.Errorf("lane drops = %+v, want none at this depth", s.LaneDrops)
	}
}

// TestLaneSchedulerClusterDelivers: in a multi-hop cluster, where every
// frame leaves through the lanes, every node delivers every broadcast.
func TestLaneSchedulerClusterDelivers(t *testing.T) {
	const msgs = 10
	g, err := topology.Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	fabric := transport.NewFabric(transport.FabricOptions{})
	defer func() { _ = fabric.Close() }()
	nodes := buildCluster(t, g, fabric, func(i int) Config {
		return Config{DeliveryBuffer: 4 * msgs}
	})
	defer func() {
		for _, nd := range nodes {
			nd.Stop()
		}
	}()
	settleTicks(nodes, 30)

	for i := 0; i < msgs; i++ {
		origin := nodes[i%len(nodes)]
		if _, _, err := origin.Broadcast([]byte("lane")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		done := true
		for _, nd := range nodes {
			if nd.Stats().Delivered < msgs {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			for i, nd := range nodes {
				t.Logf("node %d delivered %d/%d", i, nd.Stats().Delivered, msgs)
			}
			t.Fatal("cluster did not deliver every broadcast with lanes on")
		}
		tickAll(nodes)
	}
	for i, nd := range nodes {
		if d := nd.Stats().LaneDrops; d.Control != 0 {
			t.Errorf("node %d shed %d control frames; the control lane must be unbounded", i, d.Control)
		}
	}
}

// TestJoinLandsDuringDataSaturation is the lane-starvation property
// test: a joiner's announcement and the resulting epoch adoption must
// land within the usual settle budget even while every member's data
// lane is saturated past its (deliberately tiny) depth on a lossy
// fabric, because membership traffic rides the unbounded control lane.
func TestJoinLandsDuringDataSaturation(t *testing.T) {
	g, err := topology.Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	fabric := transport.NewFabric(transport.FabricOptions{Seed: 11})
	defer func() { _ = fabric.Close() }()
	// Make every ring link lossy: saturation has to survive a degraded
	// network, not just a perfect one.
	for i := 0; i < 4; i++ {
		fabric.SetLoss(topology.NodeID(i), topology.NodeID((i+1)%4), 0.05)
	}
	nodes := buildCluster(t, g, fabric, func(i int) Config {
		return Config{LaneQueueDepth: 1}
	})
	defer func() {
		for _, nd := range nodes {
			nd.Stop()
		}
	}()
	settleTicks(nodes, 30)

	// Saturate: a tight burst of broadcasts from every member against a
	// depth-1 data lane. The shed counter proves the lanes were actually
	// over the watermark while the join below went through.
	body := make([]byte, 1024)
	for round := 0; round < 50; round++ {
		for _, nd := range nodes {
			if _, _, err := nd.Broadcast(body); err != nil {
				t.Fatal(err)
			}
		}
	}

	joiner := joinNode(t, fabric, 4, 5, []topology.NodeID{0, 2}, 1, nil,
		Config{LaneQueueDepth: 1})
	nodes = append(nodes, joiner)
	settleTicks(nodes, 3)

	for i, nd := range nodes {
		if got := nd.Epoch(); got != 1 {
			t.Errorf("node %d still at epoch %d after the saturated join, want 1", i, got)
		}
	}
	shedData := 0
	for i, nd := range nodes {
		d := nd.Stats().LaneDrops
		shedData += d.Data
		if d.Control != 0 {
			t.Errorf("node %d shed %d control frames under saturation", i, d.Control)
		}
	}
	if shedData == 0 {
		t.Error("no data frames were shed; the burst never saturated the depth-1 lanes, so the test proved nothing")
	}
	// Heartbeats kept flowing throughout: the settle loop above only
	// terminates when traffic quiesces, but pin it explicitly.
	for i, nd := range nodes[:4] {
		if nd.Stats().HeartbeatsReceived == 0 {
			t.Errorf("node %d received no heartbeats", i)
		}
	}
}
