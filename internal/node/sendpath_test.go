package node

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaptivecast/internal/raceflag"
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

// TestAllocsBroadcastWarm pins a warm origin broadcast at zero
// allocations. With the plan cached and the lanes, the encode pool and
// the delivery queue warm, Broadcast encodes one frame into a pooled
// buffer and hands it to each of the hub's seven children, and the
// buffer's own count recycles it after the last child's flush. Under the
// race detector the count is the subject, not the allocations: broadcasts
// go out in bursts, so every child's callback runs on its drain goroutine
// while the next broadcast takes a buffer, and a reference dropped twice
// panics, or a buffer never returned fails the binary.
func TestAllocsBroadcastWarm(t *testing.T) {
	const n = 8
	g, err := topology.Star(n)
	if err != nil {
		t.Fatal(err)
	}
	nd := newTestNode(t, Config{ID: 0, NumProcs: n, Neighbors: g.Neighbors(0)}, &sinkTransport{id: 0})
	teach(t, nd, g, rand.New(rand.NewSource(3)))
	body := []byte("payload of a broadcast")
	broadcast := func() {
		if _, planned, err := nd.Broadcast(body); err != nil || planned < n-1 {
			t.Fatalf("broadcast planned %d copies (%v), want at least one per child of the hub", planned, err)
		}
		if _, err := nd.Next(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	settle := func() {
		if !nd.WaitSendIdle(5 * time.Second) {
			t.Fatal("the broadcast never left the lanes")
		}
	}
	for i := 0; i < 8; i++ {
		broadcast()
		settle()
	}
	if raceflag.Enabled {
		for burst := 0; burst < 20; burst++ {
			for i := 0; i < 10; i++ {
				broadcast()
			}
			settle()
		}
	} else if got := testing.AllocsPerRun(200, func() { broadcast(); settle() }); got != 0 {
		t.Errorf("a warm origin broadcast allocated %.2f times, want 0", got)
	}
	if st := nd.Stats(); st.FallbackFloods != 0 || st.PlanCacheMisses != 1 {
		t.Errorf("stats %+v: want every broadcast on the one cached plan", st)
	}
}

// TestRelayReusesInboundFrame: on an owning transport (TCP owns its
// frames, as the test's mailbox does) a non-piggybacking
// relay forwards the inbound bytes verbatim — its encode pool is never
// touched — and the broadcast still reaches everyone.
func TestRelayReusesInboundFrame(t *testing.T) {
	g, err := topology.Ring(3)
	if err != nil {
		t.Fatal(err)
	}
	nodes, boxes := mailCluster(t, g, nil)

	if _, _, err := nodes[0].Broadcast([]byte("verbatim")); err != nil {
		t.Fatal(err)
	}
	deliverMail(t, nodes, boxes)
	for _, id := range []int{1, 2} {
		d := waitDelivery(t, nodes[id])
		if string(d.Body) != "verbatim" {
			t.Fatalf("node %d delivered %q", id, d.Body)
		}
	}
	for _, id := range []int{1, 2} {
		if got := poolEncodes(nodes[id]); got != 0 {
			t.Errorf("relay %d performed %d encodes; a verbatim relay must not re-serialize", id, got)
		}
	}
}

// TestRelayReusesLentFrame: on a lending transport (the Fabric, as the
// test's mailbox here) a relay is made from the inbound bytes as on an
// owning one, copied into a pooled buffer instead of sent as they came,
// so wiping the buffer once handle returns changes no relay: a
// non-piggybacking relay sends exactly the inbound frame, and a
// piggybacking one exactly the splice the owning node sends. The inbound
// frame writes its epoch in a longer varint than the encoder does, which
// decodes to the same epoch; a relay that went through wire.EncodeInto
// would shorten it, so the relays carrying it show that none did.
func TestRelayReusesLentFrame(t *testing.T) {
	g, err := topology.Line(3) // 0 — 1 — 2: node 1 relays for 2
	if err != nil {
		t.Fatal(err)
	}
	for _, piggyback := range []bool{false, true} {
		cfg := func(id topology.NodeID) Config {
			return Config{ID: id, NumProcs: g.NumNodes(), Neighbors: g.Neighbors(id), Piggyback: piggyback}
		}
		// relayed hands frame to a node 1 and returns what it sent node 2.
		// A lending transport reuses the frame's buffer once handle has
		// returned: the relay's send is held until the buffer is wiped.
		relayed := func(owns bool, frame []byte) []byte {
			t.Helper()
			box := &mailTransport{sinkTransport: sinkTransport{id: 1, owns: owns}}
			var tr transport.Transport = box
			held := &holdTransport{Transport: box, entered: make(chan struct{}, 1), release: make(chan struct{})}
			if !owns {
				tr = held // holdTransport is no FrameOwner
			}
			nd := newTestNode(t, cfg(1), tr)
			defer stopNode(nd)
			nd.handle(0, frame)
			if !owns {
				select {
				case <-held.entered:
				case <-time.After(5 * time.Second):
					t.Fatalf("piggyback %v: node 1 relayed nothing", piggyback)
				}
				clear(frame)
				close(held.release)
			}
			if !nd.WaitSendIdle(5 * time.Second) {
				t.Fatal("node 1's lanes never flushed")
			}
			for _, m := range box.take() {
				if m.to == 2 {
					return m.frame
				}
			}
			t.Fatalf("piggyback %v, owning %v: node 1 relayed nothing to node 2", piggyback, owns)
			return nil
		}

		origin := &mailTransport{sinkTransport: sinkTransport{id: 0}}
		nd0 := newTestNode(t, cfg(0), origin)
		if _, _, err := nd0.Broadcast([]byte("lent")); err != nil {
			t.Fatal(err)
		}
		if !nd0.WaitSendIdle(5 * time.Second) {
			t.Fatal("node 0's lanes never flushed")
		}
		stopNode(nd0)
		sent := origin.take()
		if len(sent) == 0 {
			t.Fatal("node 0 sent no data frame")
		}
		frame := sent[0].frame
		last := len(frame) - 1
		inbound := append(append(slices.Clip(frame[:last]), frame[last]|0x80), 0) // the epoch's varint, one byte longer

		lent, owned := relayed(false, bytes.Clone(inbound)), relayed(true, bytes.Clone(inbound))
		if !piggyback && !bytes.Equal(lent, inbound) {
			t.Errorf("a lent frame was relayed as %x, want the inbound bytes %x", lent, inbound)
		}
		if !bytes.Equal(lent, owned) {
			t.Errorf("piggyback %v: a lent frame was relayed as %x, an owned one as %x", piggyback, lent, owned)
		}
		if !bytes.HasSuffix(lent, inbound[last:]) {
			t.Errorf("piggyback %v: the relay %x lost the inbound epoch's long varint %x, which a re-encode shortens", piggyback, lent, inbound[last:])
		}
	}
}

// TestRelayForwardsInboundBytesOverTCP: TCP keeps no frame it hands the
// handler, so a relay over real sockets forwards the inbound bytes too —
// node 1 of the chain 0 — 1 — 2 relays every broadcast without an encode
// — and node 2 delivers every body intact, although each delivered body
// shares its buffer with a frame node 1 queued for relay. Nothing ticks:
// every frame is one of the broadcasts' floods.
func TestRelayForwardsInboundBytesOverTCP(t *testing.T) {
	const procs, msgs = 3, 32
	trs := make([]*transport.TCP, procs)
	for i := range trs {
		tr, err := transport.NewTCP(topology.NodeID(i), "127.0.0.1:0", nil, transport.TCPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = tr.Close() }()
		trs[i] = tr
	}
	nodes := make([]*Node, procs)
	for i := range nodes {
		var nbs []topology.NodeID
		for _, j := range []int{i - 1, i + 1} {
			if j >= 0 && j < procs {
				nbs = append(nbs, topology.NodeID(j))
				trs[i].AddPeer(topology.NodeID(j), trs[j].Addr().String())
			}
		}
		nodes[i] = newTestNode(t, Config{ID: topology.NodeID(i), NumProcs: procs, Neighbors: nbs}, trs[i])
	}

	before := poolEncodes(nodes[1])
	body := func(seq uint64) string { return fmt.Sprintf("broadcast %d over sockets", seq) }
	for i := 0; i < msgs; i++ {
		if _, _, err := nodes[0].Broadcast([]byte(body(uint64(i + 1)))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < msgs; i++ {
		d := waitDelivery(t, nodes[2])
		if d.Origin != 0 || string(d.Body) != body(d.Seq) {
			t.Fatalf("node 2 delivered origin %d seq %d %q", d.Origin, d.Seq, d.Body)
		}
	}
	if !nodes[1].WaitSendIdle(5 * time.Second) {
		t.Fatal("node 1's lanes never flushed")
	}
	if got := poolEncodes(nodes[1]) - before; got != 0 {
		t.Errorf("relaying %d broadcasts over TCP took %d encodes, want 0", msgs, got)
	}
	if s := nodes[1].Stats(); s.DataReceived != msgs || s.DecodeErrors != 0 {
		t.Errorf("node 1: %d first receipts, %d decode errors; want %d and 0", s.DataReceived, s.DecodeErrors, msgs)
	}
}

// countingTCP is a TCP transport that counts the frames its handler is
// handed and signals each on a channel the whole cluster shares. The
// embedded *transport.TCP keeps its FrameOwner and batching fast paths.
type countingTCP struct {
	*transport.TCP
	handled atomic.Int64
	signal  chan struct{} // one token, shared
}

func (c *countingTCP) SetHandler(h transport.Handler) {
	c.TCP.SetHandler(func(from topology.NodeID, frame []byte) {
		h(from, frame)
		c.handled.Add(1)
		select {
		case c.signal <- struct{}{}:
		default:
		}
	})
}

// quiesceTCP waits until every frame the cluster has written has been
// handled. It reads the handled count first, then waits for every lane to
// flush and reads the written count: equal counts mean every frame on the
// wire was handled, and every frame those calls queued was flushed — so
// nothing is queued or in flight. Nothing sleeps: it waits on lane idle
// and on handler signals.
func quiesceTCP(t *testing.T, trs []*countingTCP, nodes []*Node) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		handled := 0
		for _, tr := range trs {
			handled += int(tr.handled.Load())
		}
		for i, nd := range nodes {
			if !nd.WaitSendIdle(5 * time.Second) {
				t.Fatalf("node %d's lanes never flushed", i)
			}
		}
		written := 0
		for _, tr := range trs {
			written += tr.Stats().FramesSent
		}
		if handled == written {
			return
		}
		select {
		case <-trs[0].signal:
		case <-deadline:
			t.Fatalf("%d of %d written frames handled", handled, written)
		}
	}
}

// TestTCPHandlesOneFramePerTreeEdge: over real sockets a plan that buys
// m[j] > 1 copies per tree edge still costs each receiver one handler
// call per inbound tree edge, because TCP writes an edge's copies once.
// Every process delivers the broadcast exactly once, and Stats.DataSent
// still counts the Σ m[j] copies the plan handed to the transport.
func TestTCPHandlesOneFramePerTreeEdge(t *testing.T) {
	const procs = 4
	g, err := topology.Ring(procs)
	if err != nil {
		t.Fatal(err)
	}
	signal := make(chan struct{}, 1)
	trs := make([]*countingTCP, procs)
	for i := range trs {
		tr, err := transport.NewTCP(topology.NodeID(i), "127.0.0.1:0", nil, transport.TCPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = tr.Close() }()
		trs[i] = &countingTCP{TCP: tr, signal: signal}
	}
	nodes := make([]*Node, procs)
	for i := range nodes {
		nbs := g.Neighbors(topology.NodeID(i))
		for _, j := range nbs {
			trs[i].AddPeer(j, trs[j].Addr().String())
		}
		nodes[i] = newTestNode(t, Config{ID: topology.NodeID(i), NumProcs: procs, Neighbors: nbs}, trs[i])
	}
	for p := 0; p < 8; p++ { // ring(4) has diameter 2: views span it well before
		for _, nd := range nodes {
			nd.Tick()
		}
		quiesceTCP(t, trs, nodes)
	}
	for _, nd := range nodes {
		drainDeliveries(nd)
	}

	before := make([]int64, procs)
	for i, tr := range trs {
		before[i] = tr.handled.Load()
	}
	const body = "one frame per edge"
	_, planned, err := nodes[0].Broadcast([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if nodes[0].Stats().FallbackFloods != 0 {
		t.Fatal("the broadcast flooded: the views never spanned the ring")
	}
	if planned <= procs-1 {
		t.Fatalf("the plan allocated %d copies over %d tree edges; the test needs some m[j] > 1", planned, procs-1)
	}
	quiesceTCP(t, trs, nodes)

	dataSent := 0
	for i, nd := range nodes {
		want := int64(1) // each receiver has one parent: one inbound tree edge
		if i == 0 {
			want = 0
		}
		if got := trs[i].handled.Load() - before[i]; got != want {
			t.Errorf("node %d's handler ran %d times for the broadcast, want %d", i, got, want)
		}
		if got := drainDeliveries(nd); len(got) != 1 || string(got[0].Body) != body {
			t.Errorf("node %d delivered %d times (%v), want once", i, len(got), got)
		}
		dataSent += nd.Stats().DataSent
	}
	if dataSent != planned {
		t.Errorf("Stats.DataSent sums to %d, want the %d copies the plan allocated", dataSent, planned)
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
	nodes, boxes := mailCluster(t, g, func(c *Config) { c.Piggyback = true })

	if _, _, err := nodes[0].Broadcast([]byte("spliced")); err != nil {
		t.Fatal(err)
	}
	deliverMail(t, nodes, boxes)
	for _, id := range []int{1, 2} {
		d := waitDelivery(t, nodes[id])
		if string(d.Body) != "spliced" {
			t.Fatalf("node %d delivered %q", id, d.Body)
		}
	}
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
	nodes := buildClusterOver(t, g, fabric, Config{},
		func(i int, tr transport.Transport) transport.Transport {
			if i == 0 {
				held.Transport = tr
				return held
			}
			return tr
		})

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
	nodes := buildCluster(t, g, fabric, nil)
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
