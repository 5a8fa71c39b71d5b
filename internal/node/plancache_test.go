package node

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"adaptivecast/internal/bayes"
	"adaptivecast/internal/dataplane"
	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/mrt"
	"adaptivecast/internal/optimize"
	"adaptivecast/internal/raceflag"
	"adaptivecast/internal/topology"
	"adaptivecast/internal/transport"
)

// freshPlan is the replan pipeline on storage nobody used before, from
// the package-level mrt.Build and optimize.Greedy: the reference a plan
// from a pooled workspace is compared against.
func freshPlan(v *knowledge.View, root topology.NodeID, k float64) *dataplane.Plan {
	g, c, err := v.EstimatedConfig()
	if err != nil {
		return &dataplane.Plan{Err: err}
	}
	tree, err := mrt.Build(g, c, root)
	if err != nil {
		return &dataplane.Plan{Err: err}
	}
	lams, err := tree.Lambdas(c)
	if err != nil {
		return &dataplane.Plan{Err: err}
	}
	alloc, err := optimize.Greedy(lams, k, optimize.Options{})
	if err != nil {
		return &dataplane.Plan{Err: err}
	}
	byNode := make([]int32, tree.NumNodes())
	for i, m := range alloc {
		byNode[tree.EdgeChild(i)] = int32(m)
	}
	return &dataplane.Plan{Edges: tree.NumEdges(), Parents: tree.Parents(), Alloc: byNode, Planned: optimize.Total(alloc)}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool, msg string) {
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

// convergedLine3 builds a 3-node line cluster and exchanges enough
// heartbeats for node 0's view to span the topology.
func convergedLine3(t *testing.T, cfg func(i int) Config) ([]*Node, *transport.Fabric) {
	t.Helper()
	g, err := topology.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	// Deep queues: the compaction test pushes 200 broadcasts × ~7 planned
	// copies in a burst, which must not overflow the fabric.
	fabric := transport.NewFabric(transport.FabricOptions{QueueSize: 1 << 14})
	t.Cleanup(func() { _ = fabric.Close() })
	nodes := buildCluster(t, g, fabric, cfg)
	for i := 0; i < 10; i++ {
		tickAll(nodes)
	}
	return nodes, fabric
}

// taughtNode is a lone node over g whose view was handed, by one
// neighbour's snapshot, an estimate of every process and link of g: enough
// to plan over the whole graph without running a cluster.
func taughtNode(t *testing.T, g *topology.Graph, id topology.NodeID, rng *rand.Rand) *Node {
	t.Helper()
	fabric := transport.NewFabric(transport.FabricOptions{})
	t.Cleanup(func() { _ = fabric.Close() })
	nd := newTestNode(t, Config{ID: id, NumProcs: g.NumNodes(), Neighbors: g.Neighbors(id)}, fabric.Endpoint(id))
	teach(t, nd, g, rng)
	return nd
}

// teach merges into nd's view snapshots that together know every
// process and link of g at distance 0, dealt round-robin among nd's
// neighbors, so each neighbor supplies a different share of the view.
func teach(t *testing.T, nd *Node, g *topology.Graph, rng *rand.Rand) {
	t.Helper()
	est := func() bayes.State {
		return bayes.State{Succ: 200 + rng.Intn(400), Fail: rng.Intn(60)}
	}
	nbs := g.Neighbors(nd.ID())
	snaps := make([]knowledge.Snapshot, len(nbs))
	for i, nb := range nbs {
		snaps[i] = knowledge.Snapshot{From: nb, Seq: 1}
	}
	for p := 0; p < g.NumNodes(); p++ {
		s := &snaps[p%len(nbs)]
		s.Procs = append(s.Procs, knowledge.ProcRecord{ID: topology.NodeID(p), Dist: 0, Est: est()})
	}
	for i, l := range g.Links() {
		s := &snaps[i%len(nbs)]
		s.Links = append(s.Links, knowledge.LinkRecord{Link: l, Dist: 0, Est: est()})
	}
	nd.mu.Lock()
	defer nd.mu.Unlock()
	for i := range snaps {
		if err := nd.core.view.MergeSnapshotKnowledgeOnly(&snaps[i]); err != nil {
			t.Fatal(err)
		}
	}
}

// samePlan reports whether two plans carry the same tree, allocation and
// total.
func samePlan(a, b *dataplane.Plan) bool {
	return a.Err == nil && b.Err == nil && a.Edges == b.Edges && a.Planned == b.Planned &&
		reflect.DeepEqual(a.Parents, b.Parents) && reflect.DeepEqual(a.Alloc, b.Alloc)
}

// mailTransport keeps every frame sent over it for the test to hand to
// the addressee's handle itself. The lane drains call it, one goroutine
// per peer, so it takes a lock.
type mailTransport struct {
	sinkTransport
	mu  sync.Mutex
	out []mail
}

type mail struct {
	from, to topology.NodeID
	frame    []byte
}

func (m *mailTransport) Send(to topology.NodeID, frame []byte) error { return m.SendN(to, frame, 1) }

func (m *mailTransport) SendN(to topology.NodeID, frame []byte, n int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for range n {
		m.out = append(m.out, mail{m.id, to, append([]byte(nil), frame...)})
	}
	return nil
}

func (m *mailTransport) SendFrames(to topology.NodeID, batch []transport.FrameBatch) error {
	for _, e := range batch {
		_ = m.SendN(to, e.Frame, e.Copies)
	}
	return nil
}

// take returns the mail sent since the last take, sorted stably by
// destination: the lanes keep the order of the frames to one peer, and
// nothing across peers.
func (m *mailTransport) take() []mail {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := m.out
	m.out = nil
	slices.SortStableFunc(out, func(a, b mail) int { return cmp.Compare(a.to, b.to) })
	return out
}

// mailCluster is one node per process of g, each over its own
// mailTransport. cfg, when set, edits each node's Config.
func mailCluster(t *testing.T, g *topology.Graph, cfg func(*Config)) ([]*Node, []*mailTransport) {
	t.Helper()
	n := g.NumNodes()
	nodes, boxes := make([]*Node, n), make([]*mailTransport, n)
	for i := range nodes {
		id := topology.NodeID(i)
		c := Config{ID: id, NumProcs: n, Neighbors: g.Neighbors(id)}
		if cfg != nil {
			cfg(&c)
		}
		boxes[i] = &mailTransport{sinkTransport: sinkTransport{id: id}}
		nodes[i] = newTestNode(t, c, boxes[i])
	}
	return nodes, boxes
}

// deliverMail hands every frame the nodes sent to its addressee's handle,
// once every node's lanes have flushed, and again for what those frames
// made the nodes send, until nothing is left in flight.
func deliverMail(t *testing.T, nodes []*Node, boxes []*mailTransport) {
	t.Helper()
	for {
		var mail []mail
		for i, nd := range nodes {
			if !nd.WaitSendIdle(5 * time.Second) {
				t.Fatalf("node %d's lanes never flushed", nd.ID())
			}
			mail = append(mail, boxes[i].take()...)
		}
		if len(mail) == 0 {
			return
		}
		for _, m := range mail {
			nodes[m.to].handle(m.from, m.frame)
		}
	}
}

// TestReplanOnPooledWorkspace: the node's replans, through the workspace
// pool that plans over 128 and 24 processes share, equal the plan a fresh
// pipeline computes from the same view, round after round as the view
// moves; a plan handed out earlier shares no memory with the workspace,
// so it reads the same after later replans. Which workspace a replan
// gets is the pool's to choose; that one which last held the larger
// cluster plans the smaller right is pinned on a single workspace by
// dataplane's TestPlanOnReusedWorkspace.
func TestReplanOnPooledWorkspace(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	big, err := topology.RandomConnected(128, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	small, err := topology.RandomConnected(24, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	bigNode, smallNode := taughtNode(t, big, 7, rng), taughtNode(t, small, 3, rng)

	first, _ := bigNode.core.plane.Replan()
	if want := freshPlan(bigNode.core.view, 7, dataplane.DefaultK); !samePlan(first, want) {
		t.Fatalf("pooled replan over 128 processes: %+v, fresh pipeline: %+v", first, want)
	}
	kept := &dataplane.Plan{Edges: first.Edges, Planned: first.Planned,
		Parents: append([]topology.NodeID(nil), first.Parents...), Alloc: append([]int32(nil), first.Alloc...)}
	for round := 0; round < 3; round++ {
		if got, _ := smallNode.core.plane.Replan(); !samePlan(got, freshPlan(smallNode.core.view, 3, dataplane.DefaultK)) {
			t.Fatalf("round %d: pooled replan over 24 processes: %+v, fresh pipeline: %+v", round, got, freshPlan(smallNode.core.view, 3, dataplane.DefaultK))
		}
		got, ver := bigNode.core.plane.Replan()
		if want := freshPlan(bigNode.core.view, 7, dataplane.DefaultK); !samePlan(got, want) || ver != bigNode.core.view.Version() {
			t.Fatalf("round %d: pooled replan at version %d: %+v, fresh pipeline at %d: %+v", round, ver, got, bigNode.core.view.Version(), want)
		}
		if !samePlan(first, kept) {
			t.Fatalf("round %d: an earlier plan changed under a later replan: %+v, was %+v", round, first, kept)
		}
		bigNode.Tick() // a period passes: the self estimate moves, the version with it
	}
}

// TestAllocsReplan: at n = 128 a replan on a warm workspace allocates the
// plan and its two vectors — nothing for the graph, the configuration,
// the tree, the λ vector or the allocator's heap and result.
func TestAllocsReplan(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation pins do not hold under the race detector")
	}
	rng := rand.New(rand.NewSource(59))
	g, err := topology.RandomConnected(128, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	nd := taughtNode(t, g, 0, rng)
	if p, _ := nd.core.plane.Replan(); p.Err != nil || p.Edges != 127 {
		t.Fatalf("the taught node plans %d edges (%v), want 127", p.Edges, p.Err)
	}
	if got := testing.AllocsPerRun(20, func() { nd.core.plane.Replan() }); got > 3 {
		t.Errorf("a replan over 128 processes on a warm workspace allocated %.0f times, want at most 3", got)
	}
}

// TestPlanCacheSameViewHits pins the cache contract: an unchanged view
// across N broadcasts costs exactly one plan build and N-1 cache hits.
func TestPlanCacheSameViewHits(t *testing.T) {
	nodes, _ := convergedLine3(t, nil)
	nd := nodes[0]

	base := nd.Stats()
	const rounds = 6
	for i := 0; i < rounds; i++ {
		if _, _, err := nd.Broadcast([]byte(fmt.Sprintf("b%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	st := nd.Stats()
	if st.FallbackFloods != base.FallbackFloods {
		t.Fatalf("broadcasts flooded (%d -> %d): view never converged",
			base.FallbackFloods, st.FallbackFloods)
	}
	if got := st.PlanCacheMisses - base.PlanCacheMisses; got != 1 {
		t.Errorf("plan cache misses = %d, want 1 (single build for an unchanged view)", got)
	}
	if got := st.PlanCacheHits - base.PlanCacheHits; got != rounds-1 {
		t.Errorf("plan cache hits = %d, want %d", got, rounds-1)
	}
}

// TestPlanCacheInvalidation verifies both invalidation triggers: the
// node's own period (BeginPeriod) and a merged neighbor snapshot that
// changes estimates, each forcing exactly one rebuild.
func TestPlanCacheInvalidation(t *testing.T) {
	nodes, _ := convergedLine3(t, nil)
	nd := nodes[0]

	if _, _, err := nd.Broadcast([]byte("warm")); err != nil {
		t.Fatal(err)
	}
	base := nd.Stats()

	// Own tick: BeginPeriod advances the view version.
	nd.Tick()
	if _, _, err := nd.Broadcast([]byte("after-tick")); err != nil {
		t.Fatal(err)
	}
	st := nd.Stats()
	if got := st.PlanCacheMisses - base.PlanCacheMisses; got != 1 {
		t.Errorf("misses after own tick = %d, want 1", got)
	}

	// Neighbor heartbeat: the merged snapshot carries fresher estimates
	// (node 1 ticked), so the cached plan must be rebuilt.
	before := nd.Stats()
	nodes[1].Tick()
	waitFor(t, func() bool { return nd.Stats().HeartbeatsReceived > before.HeartbeatsReceived },
		"node 0 never received node 1's heartbeat")
	if _, _, err := nd.Broadcast([]byte("after-merge")); err != nil {
		t.Fatal(err)
	}
	st = nd.Stats()
	if got := st.PlanCacheMisses - before.PlanCacheMisses; got != 1 {
		t.Errorf("misses after merged snapshot = %d, want 1", got)
	}
	if got := st.PlanCacheHits - before.PlanCacheHits; got != 0 {
		t.Errorf("hits after merged snapshot = %d, want 0", got)
	}
}

// TestPlanCacheMatchesFreshPlan is the cached-vs-rebuilt plan oracle:
// across ticks and merged heartbeats, every plan the data plane hands out
// equals the plan a fresh pipeline builds from the view at that version
// (the paper's replan per broadcast), it is rebuilt exactly when the
// version moved, and a second call at an unchanged version returns the
// same *plan. The nodes run over a mailbox transport and the test
// delivers every frame itself, once every node's lanes have flushed, so
// no view moves between a plan and its check and the order of delivery
// does not depend on the drains' schedule.
func TestPlanCacheMatchesFreshPlan(t *testing.T) {
	g, err := topology.RandomConnected(8, 2, rand.New(rand.NewSource(31)))
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	nodes, boxes := make([]*Node, n), make([]*mailTransport, n)
	for i := range nodes {
		id := topology.NodeID(i)
		boxes[i] = &mailTransport{sinkTransport: sinkTransport{id: id}}
		nodes[i] = newTestNode(t, Config{ID: id, NumProcs: n, Neighbors: g.Neighbors(id)}, boxes[i])
	}
	planVer := make([]uint64, n) // the version each node last planned at
	for i := range planVer {
		planVer[i] = math.MaxUint64
	}
	checks, trees := 0, 0
	check := func(nd *Node) {
		t.Helper()
		p, fresh := nd.core.plane.Plan()
		ver, want := nd.core.view.Version(), freshPlan(nd.core.view, nd.ID(), nd.cfg.K)
		if fresh != (ver != planVer[nd.ID()]) {
			t.Fatalf("check %d: node %d at version %d (last plan at %d) rebuilt = %v",
				checks, nd.ID(), ver, planVer[nd.ID()], fresh)
		}
		if p.Err != nil || want.Err != nil {
			if (p.Err == nil) != (want.Err == nil) {
				t.Fatalf("check %d: node %d at version %d: cached plan error %v, fresh plan error %v",
					checks, nd.ID(), ver, p.Err, want.Err)
			}
		} else if !samePlan(p, want) {
			t.Fatalf("check %d: node %d at version %d: cached %+v, fresh %+v", checks, nd.ID(), ver, p, want)
		} else {
			trees++
		}
		if again, fresh := nd.core.plane.Plan(); again != p || fresh {
			t.Fatalf("check %d: node %d at unchanged version %d: plan %p → %p, rebuilt = %v",
				checks, nd.ID(), ver, p, again, fresh)
		}
		planVer[nd.ID()] = ver
		checks++
	}
	for _, nd := range nodes {
		check(nd)
	}
	for period := 0; period < 30; period++ {
		for _, nd := range nodes {
			nd.Tick()
			check(nd)
		}
		for _, nd := range nodes {
			if !nd.WaitSendIdle(5 * time.Second) {
				t.Fatalf("period %d: node %d's lanes never flushed", period, nd.ID())
			}
		}
		for _, box := range boxes {
			for _, m := range box.take() {
				nodes[m.to].handle(m.from, m.frame)
				check(nodes[m.to])
			}
		}
	}
	if trees < checks/2 {
		t.Fatalf("only %d of %d checks compared a planned tree; the views never converged", trees, checks)
	}
	t.Logf("%d checks, %d of them on a planned tree", checks, trees)
}

// TestDeliveredWatermarkCompaction checks that sustained in-order traffic
// leaves no per-broadcast residue in the dedup set (the watermark absorbs
// contiguous sequences).
func TestDeliveredWatermarkCompaction(t *testing.T) {
	nodes, _ := convergedLine3(t, nil)
	nd := nodes[0]
	pending := func(nd *Node) int {
		nd.mu.Lock()
		defer nd.mu.Unlock()
		return nd.core.plane.Seen().Pending()
	}
	for i := 0; i < 200; i++ {
		if _, _, err := nd.Broadcast([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if got := pending(nd); got != 0 {
		t.Errorf("broadcaster dedup overflow = %d entries, want 0 (watermark should absorb contiguous seqs)", got)
	}
	waitFor(t, func() bool { return nodes[1].Stats().DataReceived >= 200 },
		"node 1 never received the broadcasts")
	if got := pending(nodes[1]); got != 0 {
		t.Errorf("receiver dedup overflow = %d entries, want 0", got)
	}
}

// TestBroadcastPartialFailureReturnsSeq pins what a broadcast over a
// transport that refuses every send does. Sends are hand-offs to the
// lanes, so Broadcast still returns its consumed seq and planned count,
// and queues its local delivery; once the lanes have flushed, the
// refusals show in SendFailures, which a healthy broadcast leaves at 0.
func TestBroadcastPartialFailureReturnsSeq(t *testing.T) {
	nodes, fabric := convergedLine3(t, nil)
	nd := nodes[0]

	okSeq, _, err := nd.Broadcast([]byte("healthy"))
	if err != nil || okSeq == 0 {
		t.Fatalf("healthy broadcast: seq %d, err %v", okSeq, err)
	}
	if !nd.WaitSendIdle(5 * time.Second) {
		t.Fatal("the healthy broadcast never left the lanes")
	}
	if f := nd.Stats().SendFailures; f != 0 {
		t.Fatalf("a healthy broadcast counted %d send failures", f)
	}

	// Kill the transport out from under the (still running) node.
	if err := fabric.Close(); err != nil {
		t.Fatal(err)
	}
	seq, planned, err := nd.Broadcast([]byte("doomed"))
	if err != nil {
		t.Fatalf("broadcast over a closed transport returned %v; its sends are queued, not made", err)
	}
	if seq != okSeq+1 {
		t.Errorf("doomed broadcast seq = %d, want the consumed %d", seq, okSeq+1)
	}
	if planned == 0 {
		t.Errorf("doomed broadcast planned = 0, want the planned count")
	}
	if !nd.WaitSendIdle(5 * time.Second) {
		t.Fatal("the doomed broadcast never left the lanes")
	}
	if nd.Stats().SendFailures == 0 {
		t.Error("the closed transport refused the broadcast's sends, and SendFailures is 0")
	}
	// The local delivery was still queued.
	deliveries := drainDeliveries(nd)
	found := false
	for _, d := range deliveries {
		if d.Origin == nd.ID() && d.Seq == seq {
			found = true
		}
	}
	if !found {
		t.Error("local delivery of the failed broadcast never queued")
	}
}

func TestDeliveredSetSemantics(t *testing.T) {
	s := new(dataplane.Dedup)
	if s.Mark(0, 0) {
		t.Error("seq 0 is reserved and must read as already seen")
	}
	if !s.Mark(0, 1) || s.Mark(0, 1) {
		t.Error("first sighting true, duplicate false")
	}
	// Out of order: 4 and 3 buffer above the watermark, then 2 closes the
	// gap and the watermark absorbs the whole run.
	if !s.Mark(0, 4) || !s.Mark(0, 3) {
		t.Error("out-of-order first sightings must be fresh")
	}
	if s.Pending() != 2 {
		t.Errorf("pending = %d, want 2", s.Pending())
	}
	if !s.Mark(0, 2) {
		t.Error("gap close must be fresh")
	}
	if s.Pending() != 0 {
		t.Errorf("pending after compaction = %d, want 0", s.Pending())
	}
	for seq := uint64(1); seq <= 4; seq++ {
		if s.Mark(0, seq) {
			t.Errorf("seq %d must be a duplicate after compaction", seq)
		}
		if !s.Seen(0, seq) {
			t.Errorf("seen(%d) = false after marking", seq)
		}
	}
	if s.Seen(0, 5) {
		t.Error("unmarked seq reads as seen")
	}
	// Origins are independent.
	if !s.Mark(7, 1) {
		t.Error("other origin must start fresh")
	}
}

// TestDeliveredSetOverflowCap pins the bounded-memory guarantee for a gap
// that never closes (seq 1 wholly lost): once the overflow hits its cap,
// the watermark is forced past the gap and memory stops growing.
func TestDeliveredSetOverflowCap(t *testing.T) {
	s := new(dataplane.Dedup)
	// Mark 2..dataplane.DedupWindow+2, never 1: every seq lands in the overflow.
	for seq := uint64(2); seq <= dataplane.DedupWindow+2; seq++ {
		if !s.Mark(0, seq) {
			t.Fatalf("seq %d must be fresh", seq)
		}
		if s.Pending() > dataplane.DedupWindow {
			t.Fatalf("overflow grew to %d entries, cap is %d", s.Pending(), dataplane.DedupWindow)
		}
	}
	// The forced compaction absorbed the whole contiguous 2..N run.
	if got := s.Pending(); got != 0 {
		t.Errorf("pending after forced compaction = %d, want 0", got)
	}
	if s.Mark(0, 2) {
		t.Error("absorbed seq must stay a duplicate")
	}
	// The never-seen seq 1 is conceded as below the watermark.
	if s.Mark(0, 1) {
		t.Error("gap seq below the forced watermark must read as seen")
	}
	if !s.Mark(0, dataplane.DedupWindow+3) {
		t.Error("the next contiguous seq must be fresh")
	}
}
