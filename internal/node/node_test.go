package node

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"adaptivecast/internal/dedup"
	"adaptivecast/internal/leakcheck"
	"adaptivecast/internal/queue"
	"adaptivecast/internal/topology"
	"adaptivecast/internal/transport"
)

// writeLegacyMark writes a pre-seq-floor mark file (timestamp only).
func writeLegacyMark(path string, t time.Time) error {
	return os.WriteFile(path, []byte(strconv.FormatInt(t.UnixNano(), 10)+"\n"), 0o644)
}

// stopWithin bounds a test node's Stop. Stop joins the node's drain
// goroutines after they flushed what was queued; on a healthy node that
// takes microseconds.
const stopWithin = 10 * time.Second

// stopNode stops nd. A Stop that does not return within stopWithin is a
// deadlock: like go test's own -timeout, a timer panics the binary, from
// a goroutine no test can recover, with the module's goroutines in the
// message, instead of letting the tests after it hang too.
func stopNode(nd *Node) {
	hung := time.AfterFunc(stopWithin, func() {
		panic(fmt.Sprintf("node %d: Stop did not return within %v; the module's goroutines:\n\n%s",
			nd.ID(), stopWithin, strings.Join(leakcheck.Running(), "\n\n")))
	})
	nd.Stop()
	hung.Stop()
}

// newTestNode builds a node and stops it when the test ends, after the
// test's own defers: a fabric closed by a defer is already gone, and
// Stop drains into the closed endpoint.
func newTestNode(t testing.TB, cfg Config, tr transport.Transport) *Node {
	t.Helper()
	nd, err := New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stopNode(nd) })
	return nd
}

// buildCluster wires one node per process of g over a shared fabric.
// Nodes are not started; tests pace them with Tick for determinism.
func buildCluster(t *testing.T, g *topology.Graph, fabric *transport.Fabric, cfg func(i int) Config) []*Node {
	t.Helper()
	n := g.NumNodes()
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		c := Config{
			ID:        topology.NodeID(i),
			NumProcs:  n,
			Neighbors: g.Neighbors(topology.NodeID(i)),
		}
		if cfg != nil {
			over := cfg(i)
			if over.K != 0 {
				c.K = over.K
			}
			if over.Storage != nil {
				c.Storage = over.Storage
			}
			if over.DedupLog != nil {
				c.DedupLog = over.DedupLog
			}
			if over.DeliveryBuffer != 0 {
				c.DeliveryBuffer = over.DeliveryBuffer
			}
			if over.Knowledge.DeltaEpsilon != 0 {
				c.Knowledge = over.Knowledge
			}
			if over.Piggyback {
				c.Piggyback = true
			}
			if over.LaneQueueDepth != 0 {
				c.LaneQueueDepth = over.LaneQueueDepth
			}
		}
		nodes[i] = newTestNode(t, c, fabric.Endpoint(topology.NodeID(i)))
	}
	return nodes
}

// tickAll advances every node one heartbeat period and lets the fabric
// drain.
func tickAll(nodes []*Node) {
	for _, nd := range nodes {
		nd.Tick()
	}
	// The fabric delivers through per-endpoint goroutines; give them a
	// moment to drain. Handler work is tiny, so this stays fast.
	time.Sleep(2 * time.Millisecond)
}

// drainDeliveries takes every delivery already queued, without waiting.
func drainDeliveries(nd *Node) []Delivery {
	var out []Delivery
	for {
		d, r := nd.deliveries.Pop()
		if r != queue.Popped {
			return out
		}
		out = append(out, d)
	}
}

func waitDelivery(t *testing.T, nd *Node) Delivery {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	d, err := nd.Next(ctx)
	if err != nil {
		t.Fatalf("waiting for a delivery: %v", err)
	}
	return d
}

func TestNewValidation(t *testing.T) {
	fabric := transport.NewFabric(transport.FabricOptions{})
	defer func() { _ = fabric.Close() }()
	ep := fabric.Endpoint(0)

	if _, err := New(Config{ID: 0, NumProcs: 2, Neighbors: []topology.NodeID{1}}, nil); err == nil {
		t.Error("nil transport should fail")
	}
	if _, err := New(Config{ID: 1, NumProcs: 2, Neighbors: []topology.NodeID{0}}, ep); err == nil {
		t.Error("transport/config ID mismatch should fail")
	}
	for _, k := range []float64{2, -0.5, 1, math.NaN()} {
		if _, err := New(Config{ID: 0, NumProcs: 2, Neighbors: []topology.NodeID{1}, K: k}, ep); err == nil {
			t.Errorf("K=%v should fail", k)
		}
	}
	if _, err := New(Config{ID: 0, NumProcs: 1, Neighbors: []topology.NodeID{5}}, ep); err == nil {
		t.Error("bad neighbor should fail")
	}
}

// TestNewRejectsNegativeSettings: a negative size or period is refused by
// New instead of dropping every delivery (DeliveryBuffer), shedding every
// data frame (LaneQueueDepth) or panicking in Start's ticker
// (HeartbeatEvery).
func TestNewRejectsNegativeSettings(t *testing.T) {
	for name, c := range map[string]Config{
		"DeliveryBuffer": {DeliveryBuffer: -1},
		"LaneQueueDepth": {LaneQueueDepth: -1},
		"HeartbeatEvery": {HeartbeatEvery: -5 * time.Millisecond},
	} {
		c.ID, c.NumProcs, c.Neighbors = 0, 2, []topology.NodeID{1}
		if _, err := New(c, &sinkTransport{id: 0}); err == nil {
			t.Errorf("negative %s: New returned no error", name)
		}
	}
}

func TestFloodBroadcastBeforeConvergence(t *testing.T) {
	g, err := topology.Ring(5)
	if err != nil {
		t.Fatal(err)
	}
	fabric := transport.NewFabric(transport.FabricOptions{})
	defer func() { _ = fabric.Close() }()
	nodes := buildCluster(t, g, fabric, nil)

	// No heartbeats yet: the view is disconnected, so this must flood.
	_, planned, err := nodes[0].Broadcast([]byte("early"))
	if err != nil {
		t.Fatal(err)
	}
	if planned != 2 {
		t.Errorf("planned = %d, want flood fan-out 2", planned)
	}
	if nodes[0].Stats().FallbackFloods != 1 {
		t.Error("flood not counted")
	}
	for i, nd := range nodes {
		d := waitDelivery(t, nd)
		if string(d.Body) != "early" || d.Origin != 0 {
			t.Errorf("node %d delivery = %+v", i, d)
		}
	}
}

func TestHeartbeatsConvergeTopologyAndTreeBroadcast(t *testing.T) {
	g, err := topology.Ring(6)
	if err != nil {
		t.Fatal(err)
	}
	c := newStepped(t, g, 0, nil)
	nodes := c.nodes

	// Diameter of ring(6) is 3; a few extra periods let everything settle.
	c.ticks(8, false)
	for i, nd := range nodes {
		if got := len(nd.KnownLinks()); got != 6 {
			t.Fatalf("node %d knows %d links, want 6", i, got)
		}
	}

	// Now broadcasts ride a real MRT: on a (still believed lossy-ish)
	// ring the tree has n-1 = 5 edges; planned = Σ alloc ≥ 5 and no
	// flooding.
	_, planned := c.broadcast(2, []byte("tree"))
	if c.fx.Plan.Err != nil {
		t.Error("flooded despite converged topology")
	}
	if planned < 5 {
		t.Errorf("planned = %d, want >= 5", planned)
	}
	c.drain()
	for i, nd := range nodes {
		if ds := nd.take(); len(ds) != 1 || string(ds[0].Body) != "tree" {
			t.Fatalf("node %d delivered %+v", i, ds)
		}
	}
}

func TestDedupAcrossCopies(t *testing.T) {
	g, err := topology.Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	c := newStepped(t, g, 0, nil)
	c.ticks(6, false)
	for b := 0; b < 3; b++ {
		c.broadcast(1, []byte(fmt.Sprintf("b%d", b)))
	}
	c.drain()
	for i, nd := range c.nodes {
		got := nd.take()
		if len(got) != 3 {
			t.Errorf("node %d delivered %d messages, want exactly 3 (dedup)", i, len(got))
		}
	}
}

func TestLossEstimateConvergesOnLiveStack(t *testing.T) {
	const trueLoss = 0.2
	g, err := topology.Line(2)
	if err != nil {
		t.Fatal(err)
	}
	c := newStepped(t, g, 99, nil)
	c.setLoss(0, 1, trueLoss)
	c.ticks(1200, false)
	link := topology.NewLink(0, 1)
	for i, nd := range c.nodes {
		got, dist, ok := nd.LossEstimate(link)
		if !ok || dist != 0 {
			t.Fatalf("node %d: ok=%v dist=%d", i, ok, dist)
		}
		if math.Abs(got-trueLoss) > 0.06 {
			t.Errorf("node %d loss estimate = %v, want ≈%v", i, got, trueLoss)
		}
	}
}

func TestCrashRecoveryViaStableStorage(t *testing.T) {
	g, err := topology.Line(2)
	if err != nil {
		t.Fatal(err)
	}
	store := &MemStorage{}
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }

	fabric := transport.NewFabric(transport.FabricOptions{})
	defer func() { _ = fabric.Close() }()
	cfg := Config{
		ID: 0, NumProcs: 2, Neighbors: g.Neighbors(0),
		Storage: store, HeartbeatEvery: time.Second, Now: clock,
	}
	nd := newTestNode(t, cfg, fabric.Endpoint(0))
	for i := 0; i < 20; i++ {
		nd.Tick()
		now = now.Add(time.Second)
	}
	healthy, _ := nd.CrashEstimate(0)
	stopNode(nd)

	// The "machine" is down for 60 heartbeat periods, then restarts.
	now = now.Add(60 * time.Second)
	fabric2 := transport.NewFabric(transport.FabricOptions{})
	defer func() { _ = fabric2.Close() }()
	nd2 := newTestNode(t, cfg, fabric2.Endpoint(0))
	recovered, _ := nd2.CrashEstimate(0)
	if recovered <= healthy {
		t.Errorf("crash estimate after 60 missed periods = %v, want > healthy %v", recovered, healthy)
	}
}

func TestFileStorage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mark")
	fs := NewFileStorage(path)
	if _, _, ok, err := fs.LoadMark(); err != nil || ok {
		t.Fatalf("empty storage: ok=%v err=%v", ok, err)
	}
	want := time.Unix(123456, 789)
	if err := fs.SaveMark(want, 42); err != nil {
		t.Fatal(err)
	}
	got, seq, ok, err := fs.LoadMark()
	if err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	if !got.Equal(want) {
		t.Errorf("mark = %v, want %v", got, want)
	}
	if seq != 42 {
		t.Errorf("seq floor = %d, want 42", seq)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temporary file left behind after a save (stat err %v)", err)
	}
}

// TestFileStorageFailedRenameLeavesNoTemp: a SaveMark whose rename
// fails — the mark path is a non-empty directory — returns the error
// and removes its temporary file.
func TestFileStorageFailedRenameLeavesNoTemp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mark")
	if err := os.MkdirAll(filepath.Join(path, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := NewFileStorage(path).SaveMark(time.Unix(99, 0), 7); err == nil {
		t.Fatal("SaveMark over a directory succeeded")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temporary file left behind after a failed save (stat err %v)", err)
	}
}

// TestFileStorageLegacyFormat keeps pre-seq mark files loadable: a file
// holding just the timestamp reads back with sequence floor 0.
func TestFileStorageLegacyFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mark")
	if err := writeLegacyMark(path, time.Unix(99, 0)); err != nil {
		t.Fatal(err)
	}
	got, seq, ok, err := NewFileStorage(path).LoadMark()
	if err != nil || !ok {
		t.Fatalf("legacy load: ok=%v err=%v", ok, err)
	}
	if !got.Equal(time.Unix(99, 0)) || seq != 0 {
		t.Errorf("legacy mark = (%v, %d), want (%v, 0)", got, seq, time.Unix(99, 0))
	}
}

// TestFileStorageTwoFieldFormat keeps timestamp-and-floor mark files
// loadable.
func TestFileStorageTwoFieldFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mark")
	if err := os.WriteFile(path, []byte("99000000000 17\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, seq, ok, err := NewFileStorage(path).LoadMark()
	if err != nil || !ok {
		t.Fatalf("two-field load: ok=%v err=%v", ok, err)
	}
	if !got.Equal(time.Unix(99, 0)) || seq != 17 {
		t.Errorf("two-field mark = (%v, %d), want (%v, 17)", got, seq, time.Unix(99, 0))
	}
}

// TestFileStorageCadenceFormat keeps mark files of the version that
// persisted heartbeat cadences loadable: the id:interval pairs after
// the floor are ignored, and the timestamp and floor still parse
// strictly.
func TestFileStorageCadenceFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mark")
	if err := os.WriteFile(path, []byte("99000000000 17 1:8 3:2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, seq, ok, err := NewFileStorage(path).LoadMark()
	if err != nil || !ok {
		t.Fatalf("cadence-format load: ok=%v err=%v", ok, err)
	}
	if !got.Equal(time.Unix(99, 0)) || seq != 17 {
		t.Errorf("cadence-format mark = (%v, %d), want (%v, 17)", got, seq, time.Unix(99, 0))
	}
	for _, bad := range []string{"99x 17 1:8\n", "99000000000 -1 1:8\n"} {
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := NewFileStorage(path).LoadMark(); err == nil {
			t.Errorf("LoadMark accepted %q", bad)
		}
	}
}

func TestStartStopLifecycle(t *testing.T) {
	g, err := topology.Line(2)
	if err != nil {
		t.Fatal(err)
	}
	fabric := transport.NewFabric(transport.FabricOptions{})
	defer func() { _ = fabric.Close() }()
	nodes := buildCluster(t, g, fabric, nil)
	nd := nodes[0]
	nd.Start()
	nd.Start() // idempotent
	stopNode(nd)
	nd.Stop() // idempotent
	if _, _, err := nd.Broadcast([]byte("x")); err == nil {
		t.Error("broadcast after Stop should fail")
	}
	nd.Tick() // must be a no-op, not a panic
}

func TestDeliveryOverflowCounted(t *testing.T) {
	g, err := topology.Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	fabric := transport.NewFabric(transport.FabricOptions{})
	defer func() { _ = fabric.Close() }()
	nodes := buildCluster(t, g, fabric, func(i int) Config {
		return Config{DeliveryBuffer: deliveryBytes(Delivery{Body: []byte("a")})}
	})
	for p := 0; p < 6; p++ {
		tickAll(nodes)
	}
	// Two broadcasts into a one-delivery bound nobody drains.
	if _, _, err := nodes[0].Broadcast([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := nodes[0].Broadcast([]byte("b")); err != nil {
		t.Fatal(err)
	}
	if nodes[0].Stats().DroppedDeliveries == 0 {
		t.Error("overflow not counted")
	}
}

// TestRelayFloodExcludesSender pins the warm-up relay fix: a tree-less
// (flooded) message is re-flooded to every neighbor *except* the one it
// came from — echoing it back wastes a frame per hop and re-merges the
// relay's own piggyback. The originator's flood still covers everyone.
// The test hands every frame to its addressee itself, so each relay has
// counted its sends when the last frame is handled.
func TestRelayFloodExcludesSender(t *testing.T) {
	g, err := topology.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	nodes, boxes := mailCluster(t, g, nil)

	// No heartbeats: the broadcast floods. 0 → 1 → 2 down the line.
	if _, _, err := nodes[0].Broadcast([]byte("warmup")); err != nil {
		t.Fatal(err)
	}
	deliverMail(t, nodes, boxes)
	for i, nd := range nodes {
		if d := drainDeliveries(nd); len(d) != 1 || string(d[0].Body) != "warmup" {
			t.Fatalf("node %d deliveries = %+v", i, d)
		}
	}
	// The originator floods its 1 neighbor; the middle relay must send
	// only onward to node 2 (1 frame, not 2); the end node has nobody
	// left once its inbound sender is excluded.
	if got := nodes[0].Stats().DataSent; got != 1 {
		t.Errorf("originator sent %d data frames, want 1", got)
	}
	if got := nodes[1].Stats().DataSent; got != 1 {
		t.Errorf("relay sent %d data frames, want 1 (must not echo to its sender)", got)
	}
	if got := nodes[2].Stats().DataSent; got != 0 {
		t.Errorf("end node sent %d data frames, want 0", got)
	}
}

// TestDeliveredCountsOnlyEnqueued pins the stats fix: a delivery that
// hits a full queue is a drop, not a delivery — the two counters
// partition outcomes instead of both incrementing for the same message.
func TestDeliveredCountsOnlyEnqueued(t *testing.T) {
	fabric := transport.NewFabric(transport.FabricOptions{})
	defer func() { _ = fabric.Close() }()
	one := deliveryBytes(Delivery{Body: []byte("x")})
	nd := newTestNode(t, Config{ID: 0, NumProcs: 1, DeliveryBuffer: one}, fabric.Endpoint(0))
	for i := 0; i < 3; i++ {
		if _, _, err := nd.Broadcast([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	st := nd.Stats()
	if st.Delivered != 1 || st.DroppedDeliveries != 2 {
		t.Errorf("Delivered=%d Dropped=%d, want 1 and 2 (counters must partition outcomes)",
			st.Delivered, st.DroppedDeliveries)
	}
}

// TestExactlyOnceAcrossRestart exercises the dedup-log integration: a node
// that delivered a broadcast, crashed, and restarted must suppress a
// replayed copy (the paper's Section 2.2 local-logging construction).
func TestExactlyOnceAcrossRestart(t *testing.T) {
	g, err := topology.Line(2)
	if err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(t.TempDir(), "dedup.log")
	dlog, err := dedup.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}

	fabric := transport.NewFabric(transport.FabricOptions{})
	defer func() { _ = fabric.Close() }()
	cfg1 := Config{ID: 1, NumProcs: 2, Neighbors: g.Neighbors(1), DedupLog: dlog}
	receiver := newTestNode(t, cfg1, fabric.Endpoint(1))
	sender := newTestNode(t, Config{ID: 0, NumProcs: 2, Neighbors: g.Neighbors(0)}, fabric.Endpoint(0))

	if _, _, err := sender.Broadcast([]byte("once")); err != nil {
		t.Fatal(err)
	}
	d := waitDelivery(t, receiver)
	if string(d.Body) != "once" {
		t.Fatalf("delivery = %+v", d)
	}

	// Crash the receiver: stop it, drop all volatile state, reopen the
	// durable log, and build a fresh incarnation on a fresh fabric.
	stopNode(receiver)
	if err := dlog.Close(); err != nil {
		t.Fatal(err)
	}
	dlog2, err := dedup.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dlog2.Close() }()

	fabric2 := transport.NewFabric(transport.FabricOptions{})
	defer func() { _ = fabric2.Close() }()
	cfg2 := cfg1
	cfg2.DedupLog = dlog2
	receiver2 := newTestNode(t, cfg2, fabric2.Endpoint(1))
	sender2 := newTestNode(t, Config{ID: 0, NumProcs: 2, Neighbors: g.Neighbors(0)}, fabric2.Endpoint(0))

	// The sender replays the same broadcast ID (seq restarts at 1 since
	// the sender has no log): the receiver must suppress it.
	if _, _, err := sender2.Broadcast([]byte("once")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if got := len(drainDeliveries(receiver2)); got != 0 {
		t.Errorf("replay delivered %d times after restart, want 0", got)
	}
	if receiver2.Stats().SuppressedReplays != 1 {
		t.Errorf("SuppressedReplays = %d, want 1", receiver2.Stats().SuppressedReplays)
	}

	// A genuinely new broadcast still goes through.
	if _, _, err := sender2.Broadcast([]byte("new")); err != nil {
		t.Fatal(err)
	}
	d = waitDelivery(t, receiver2)
	if string(d.Body) != "new" {
		t.Fatalf("new broadcast lost: %+v", d)
	}
}

// TestDedupLogResumesSequencing checks a restarting origin skips past its
// own logged sequence numbers.
func TestDedupLogResumesSequencing(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "dedup.log")
	dlog, err := dedup.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	g, err := topology.Line(2)
	if err != nil {
		t.Fatal(err)
	}
	fabric := transport.NewFabric(transport.FabricOptions{})
	defer func() { _ = fabric.Close() }()
	// Attach the peer endpoint so sends to it are best-effort drops, not
	// the all-sends-failed structural error Broadcast now reports.
	_ = fabric.Endpoint(1)
	cfg := Config{ID: 0, NumProcs: 2, Neighbors: g.Neighbors(0), DedupLog: dlog}
	nd := newTestNode(t, cfg, fabric.Endpoint(0))
	for i := 0; i < 3; i++ {
		if _, _, err := nd.Broadcast([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	stopNode(nd)
	if err := dlog.Close(); err != nil {
		t.Fatal(err)
	}

	dlog2, err := dedup.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dlog2.Close() }()
	fabric2 := transport.NewFabric(transport.FabricOptions{})
	defer func() { _ = fabric2.Close() }()
	_ = fabric2.Endpoint(1)
	cfg.DedupLog = dlog2
	nd2 := newTestNode(t, cfg, fabric2.Endpoint(0))
	seq, _, err := nd2.Broadcast([]byte("y"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 4 {
		t.Errorf("post-restart seq = %d, want 4 (resumed above the log)", seq)
	}
}

// TestPiggybackOnLiveStack checks Section 4.1's optimization on the wire
// path: with piggybacking on, data traffic alone spreads topology
// knowledge between live nodes. The test hands every frame over itself.
func TestPiggybackOnLiveStack(t *testing.T) {
	g, err := topology.Ring(5)
	if err != nil {
		t.Fatal(err)
	}
	nodes, boxes := mailCluster(t, g, func(c *Config) { c.Piggyback = true })
	// No heartbeats at all: knowledge moves only on flooded data frames,
	// each broadcast's handed to every node before the next one leaves.
	for round := 0; round < 5; round++ {
		if _, _, err := nodes[round].Broadcast([]byte("pb")); err != nil {
			t.Fatal(err)
		}
		deliverMail(t, nodes, boxes)
	}
	for i, nd := range nodes {
		if got := len(nd.KnownLinks()); got < 4 {
			t.Errorf("node %d knows only %d links with piggybacking", i, got)
		}
	}
}

// TestStatsCountMergeVerdicts: Stats publishes the Algorithm 3 verdicts
// the view booked on every merged record, and in a settled ring each node
// has both adopted and rejected records of each kind.
func TestStatsCountMergeVerdicts(t *testing.T) {
	g, err := topology.Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	fabric := transport.NewFabric(transport.FabricOptions{})
	defer func() { _ = fabric.Close() }()
	nodes := buildCluster(t, g, fabric, nil)
	settleTicks(nodes, 20)
	for i, nd := range nodes {
		nd.mu.Lock()
		procs, links := nd.core.view.Verdicts()
		nd.mu.Unlock()
		s := nd.Stats()
		if s.ProcRecords != RecordVerdicts(procs) || s.LinkRecords != RecordVerdicts(links) {
			t.Errorf("node %d: Stats reads %+v and %+v, the view booked %+v and %+v", i, s.ProcRecords, s.LinkRecords, procs, links)
		}
		for kind, v := range map[string]RecordVerdicts{"process": s.ProcRecords, "link": s.LinkRecords} {
			if v.Adopted == 0 || v.RejectedEqual+v.RejectedAbove == 0 {
				t.Errorf("node %d: %s record verdicts %+v, want adoptions and rejections", i, kind, v)
			}
		}
	}
}
