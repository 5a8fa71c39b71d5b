// Benchmarks regenerating every table and figure of the paper (reduced
// parameter grids with the same shape; run cmd/repro -full for the
// paper-scale sweeps) plus micro-benchmarks of the hot components.
// Headline numbers are recorded in the README "Performance" section.
package adaptivecast_test

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaptivecast"
	"adaptivecast/internal/bayes"
	"adaptivecast/internal/broadcast"
	"adaptivecast/internal/config"
	"adaptivecast/internal/experiments"
	"adaptivecast/internal/gossip"
	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/lanes"
	"adaptivecast/internal/mrt"
	"adaptivecast/internal/node"
	"adaptivecast/internal/optimize"
	"adaptivecast/internal/sim"
	"adaptivecast/internal/topology"
	"adaptivecast/internal/transport"
	"adaptivecast/internal/wire"
)

// ---------------------------------------------------------------------------
// One benchmark per paper artifact.
// ---------------------------------------------------------------------------

// BenchmarkTable1 regenerates Table 1 (Bayesian belief adaptation, U=5).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1()
		if rows[4].BeliefAfter < 0.35 {
			b.Fatal("table 1 values drifted")
		}
	}
}

// BenchmarkFigure1 regenerates Figure 1 (two-path adaptive vs gossip,
// closed form over the paper's full α and L grid).
func BenchmarkFigure1(b *testing.B) {
	p := experiments.DefaultFigure1()
	for i := 0; i < b.N; i++ {
		res := experiments.Figure1(p)
		if len(res.Series) != 3 {
			b.Fatal("figure 1 shape drifted")
		}
	}
}

// BenchmarkFigure4a regenerates Figure 4(a): reference/adaptive ratio with
// reliable links, crash probability varying.
func BenchmarkFigure4a(b *testing.B) {
	benchFigure4(b, false)
}

// BenchmarkFigure4b regenerates Figure 4(b): reference/adaptive ratio with
// reliable processes, loss probability varying.
func BenchmarkFigure4b(b *testing.B) {
	benchFigure4(b, true)
}

func benchFigure4(b *testing.B, varyLoss bool) {
	p := experiments.Figure4Params{
		N:              60,
		Connectivities: []int{2, 8, 16},
		Probs:          []float64{0.03},
		VaryLoss:       varyLoss,
		Graphs:         1,
		GossipRuns:     5,
		Seed:           1,
	}
	b.ResetTimer()
	var lastRatio float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure4(p)
		if err != nil {
			b.Fatal(err)
		}
		ys := res.Series[0].Y
		lastRatio = ys[len(ys)-1]
	}
	b.ReportMetric(lastRatio, "ratio@conn16")
}

// BenchmarkFigure5a regenerates Figure 5(a): convergence effort with
// reliable links, crash probability varying.
func BenchmarkFigure5a(b *testing.B) {
	benchFigure5(b, false)
}

// BenchmarkFigure5b regenerates Figure 5(b): convergence effort with
// reliable processes, loss probability varying.
func BenchmarkFigure5b(b *testing.B) {
	benchFigure5(b, true)
}

func benchFigure5(b *testing.B, varyLoss bool) {
	p := experiments.Figure5Params{
		N:              40,
		Connectivities: []int{2, 8},
		Probs:          []float64{0.03},
		VaryLoss:       varyLoss,
		Graphs:         1,
		Seed:           1,
	}
	b.ResetTimer()
	var lastEffort float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure5(p)
		if err != nil {
			b.Fatal(err)
		}
		ys := res.Series[0].Y
		lastEffort = ys[len(ys)-1]
	}
	b.ReportMetric(lastEffort, "msgs/link")
}

// BenchmarkFigure6 regenerates Figure 6: scalability (ring vs tree).
func BenchmarkFigure6(b *testing.B) {
	p := experiments.Figure6Params{
		Sizes:  []int{60, 120},
		Graphs: 1,
		Seed:   1,
	}
	b.ResetTimer()
	var ringAtMax float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure6(p)
		if err != nil {
			b.Fatal(err)
		}
		ringAtMax = res.Series[0].Y[1]
	}
	b.ReportMetric(ringAtMax, "ring-msgs/link")
}

// BenchmarkAblationAllocation regenerates the greedy-vs-uniform ablation.
func BenchmarkAblationAllocation(b *testing.B) {
	p := experiments.AblationParams{N: 40, Graphs: 2, Seed: 1, HeterogeneousLoss: true}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationAllocation(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationTree regenerates the MRT-vs-other-trees ablation.
func BenchmarkAblationTree(b *testing.B) {
	p := experiments.AblationParams{N: 40, Graphs: 2, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationTree(p); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the core components.
// ---------------------------------------------------------------------------

func benchTopology(b *testing.B, n, conn int) (*topology.Graph, *config.Config) {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	g, err := topology.RandomConnected(n, conn, rng)
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := config.Uniform(g, 0.01, 0.03)
	if err != nil {
		b.Fatal(err)
	}
	return g, cfg
}

// BenchmarkMRTBuild measures Maximum Reliability Tree construction on the
// paper's evaluation scale (100 processes, 8 links each).
func BenchmarkMRTBuild(b *testing.B) {
	g, cfg := benchTopology(b, 100, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mrt.Build(g, cfg, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeGreedy measures the heap-based allocator on a 99-edge
// tree at K=0.9999.
func BenchmarkOptimizeGreedy(b *testing.B) {
	g, cfg := benchTopology(b, 100, 8)
	tree, err := mrt.Build(g, cfg, 0)
	if err != nil {
		b.Fatal(err)
	}
	lams, err := tree.Lambdas(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := optimize.Greedy(lams, 0.9999, optimize.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReach measures one reach-function evaluation on 99 edges.
func BenchmarkReach(b *testing.B) {
	lams := make([]float64, 99)
	m := make([]int, 99)
	for i := range lams {
		lams[i] = 0.05
		m[i] = 3
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if optimize.Reach(lams, m) <= 0 {
			b.Fatal("impossible")
		}
	}
}

// BenchmarkBayesUpdate measures one Bayes step at the paper's precision
// (U = 100 intervals).
func BenchmarkBayesUpdate(b *testing.B) {
	e := bayes.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%10 == 0 {
			e.ObserveFailure(1)
		} else {
			e.ObserveSuccess(1)
		}
	}
}

// BenchmarkGossipRun measures one reference-gossip broadcast to quiescence
// (n=100, connectivity 8, L=0.03).
func BenchmarkGossipRun(b *testing.B) {
	_, cfg := benchTopology(b, 100, 8)
	rng := rand.New(rand.NewSource(9))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gossip.Run(cfg, 0, rng, gossip.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeartbeatPeriod measures one full heartbeat period of the
// adaptive cluster on the simulator (100 nodes, connectivity 8): every
// node's heartbeat-plane period (Events 2–3, the delta cuts and their
// frames) plus every frame decoded and merged.
func BenchmarkHeartbeatPeriod(b *testing.B) {
	_, cfg := benchTopology(b, 100, 8)
	eng := sim.NewEngine(11)
	net := sim.NewNetwork(eng, cfg, sim.Options{DisableCrashSampling: true})
	runner, err := broadcast.NewRunner(net, broadcast.RunnerOptions{ModelCrashesAsSkips: true}, nil)
	if err != nil {
		b.Fatal(err)
	}
	runner.Start()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.RunUntil(sim.Time(i + 1))
	}
}

// BenchmarkSnapshotEncode measures serializing one knowledge snapshot
// (live-runtime heartbeat payload) for a 100-process view.
func BenchmarkSnapshotEncode(b *testing.B) {
	v, err := knowledge.NewView(0, 100, []topology.NodeID{1, 2, 3, 4}, nil, knowledge.Params{})
	if err != nil {
		b.Fatal(err)
	}
	v.BeginPeriod()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame, err := wire.Encode(&wire.Frame{Kind: wire.FrameHeartbeat, Heartbeat: v.Snapshot()})
		if err != nil {
			b.Fatal(err)
		}
		if len(frame) == 0 {
			b.Fatal("empty frame")
		}
	}
}

// BenchmarkAdaptiveBroadcastPlan measures one adaptive broadcast on the
// twin from a converged view: its plan (estimated config → MRT →
// allocation, cached while the view stands still, as on a node), the
// frame's encode and its sends.
func BenchmarkAdaptiveBroadcastPlan(b *testing.B) {
	_, cfg := benchTopology(b, 100, 8)
	eng := sim.NewEngine(13)
	net := sim.NewNetwork(eng, cfg, sim.Options{DisableCrashSampling: true})
	runner, err := broadcast.NewRunner(net, broadcast.RunnerOptions{ModelCrashesAsSkips: true}, nil)
	if err != nil {
		b.Fatal(err)
	}
	runner.Start()
	eng.RunUntil(60) // enough periods to learn the topology
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := runner.Proc(0).Broadcast([]byte{byte(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireDecode measures parsing one heartbeat frame (the live
// runtime's hottest inbound path).
func BenchmarkWireDecode(b *testing.B) {
	v, err := knowledge.NewView(0, 100, []topology.NodeID{1, 2, 3, 4}, nil, knowledge.Params{})
	if err != nil {
		b.Fatal(err)
	}
	v.BeginPeriod()
	frame, err := wire.Encode(&wire.Frame{Kind: wire.FrameHeartbeat, Heartbeat: v.Snapshot()})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.Decode(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDataMsg builds the shared data-frame fixture for the codec
// benchmarks: a 100-node tree with its greedy allocation and a small
// payload.
func benchDataMsg(b *testing.B) *wire.DataMsg {
	b.Helper()
	g, cfg := benchTopology(b, 100, 8)
	tree, err := mrt.Build(g, cfg, 0)
	if err != nil {
		b.Fatal(err)
	}
	lams, err := tree.Lambdas(cfg)
	if err != nil {
		b.Fatal(err)
	}
	alloc, err := optimize.Greedy(lams, 0.9999, optimize.Options{})
	if err != nil {
		b.Fatal(err)
	}
	byNode := make([]int32, tree.NumNodes())
	for i := 0; i < tree.NumEdges(); i++ {
		byNode[tree.EdgeChild(i)] = int32(alloc[i])
	}
	return &wire.DataMsg{
		Origin:      0,
		Seq:         42,
		Root:        0,
		Parents:     tree.Parents(),
		AllocByNode: byNode,
		Body:        []byte("benchmark payload 0123456789abcdef"),
	}
}

// BenchmarkWireEncodeData measures serializing one data frame carrying a
// 100-node tree and allocation (the live runtime's hottest outbound path).
func BenchmarkWireEncodeData(b *testing.B) {
	msg := benchDataMsg(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame, err := wire.Encode(&wire.Frame{Kind: wire.FrameData, Data: msg})
		if err != nil {
			b.Fatal(err)
		}
		if len(frame) == 0 {
			b.Fatal("empty frame")
		}
	}
}

// benchConvergedCluster builds an n-node random cluster over the
// in-process fabric and ticks it until node 0's view spans the topology
// and plans a real MRT (no warm-up flood). It is the fixture for the
// broadcast-throughput benchmarks.
func benchConvergedCluster(b *testing.B, n, conn int) *adaptivecast.Cluster {
	b.Helper()
	rng := rand.New(rand.NewSource(23))
	g, err := adaptivecast.RandomConnected(n, conn, rng)
	if err != nil {
		b.Fatal(err)
	}
	return benchConvergeGraph(b, g, nil)
}

// benchConvergeGraph builds a cluster over an explicit graph and runs it
// to a plannable view (see benchConvergedCluster).
func benchConvergeGraph(b *testing.B, g *adaptivecast.Topology, mutate func(*adaptivecast.ClusterConfig)) *adaptivecast.Cluster {
	b.Helper()
	cfg := adaptivecast.ClusterConfig{Topology: g}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := adaptivecast.NewCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = c.Close() })
	// Every node takes and discards its deliveries, as an application
	// would, so b.N broadcasts do not pile up in the delivery queues.
	for i := 0; i < g.NumNodes(); i++ {
		c.Node(adaptivecast.NodeID(i)).Subscribe(func(adaptivecast.Delivery) {})
	}
	for round := 0; round < 400; round++ {
		c.Tick()
		time.Sleep(time.Millisecond) // let the fabric deliver the heartbeats
		if len(c.KnownLinks(0)) != g.NumLinks() {
			continue
		}
		before := c.Stats(0).FallbackFloods
		if _, _, err := c.Broadcast(0, []byte("probe")); err != nil {
			b.Fatal(err)
		}
		if c.Stats(0).FallbackFloods == before {
			return c
		}
	}
	b.Fatal("cluster never converged to a plannable view")
	return nil
}

// BenchmarkBroadcast measures end-to-end broadcast initiation throughput
// on a converged 32-node cluster: repeated same-view broadcasts from one
// node (plan + encode + hand-off to the transport).
func BenchmarkBroadcast(b *testing.B) {
	c := benchConvergedCluster(b, 32, 4)
	body := []byte("broadcast payload 0123456789abcdef")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Broadcast(0, body); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBroadcastParallel is BenchmarkBroadcast with concurrent
// broadcasters on the same node, measuring lock contention on the
// broadcast path.
func BenchmarkBroadcastParallel(b *testing.B) {
	c := benchConvergedCluster(b, 32, 4)
	body := []byte("broadcast payload 0123456789abcdef")
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, err := c.Broadcast(0, body); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkHeterogeneous regenerates the heterogeneity extension figure.
func BenchmarkHeterogeneous(b *testing.B) {
	p := experiments.HeterogeneousParams{
		N: 50, Connectivity: 6, Spreads: []float64{0, 1}, Graphs: 1, GossipRuns: 5, Seed: 1,
	}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Heterogeneous(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKnowledgeMerge measures one full-snapshot heartbeat cut and
// merged (Event 1) between two 100-process views with 400 known links.
func BenchmarkKnowledgeMerge(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	g, err := topology.RandomConnected(100, 8, rng)
	if err != nil {
		b.Fatal(err)
	}
	in := knowledge.NewInterner()
	for _, l := range g.Links() {
		in.Intern(l)
	}
	a, err := knowledge.NewView(0, 100, g.Neighbors(0), in, knowledge.Params{})
	if err != nil {
		b.Fatal(err)
	}
	nb := g.Neighbors(0)[0]
	src, err := knowledge.NewView(nb, 100, g.Neighbors(nb), in, knowledge.Params{})
	if err != nil {
		b.Fatal(err)
	}
	src.BeginPeriod()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.MergeSnapshot(src.Snapshot()); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Steady-state datapath benchmarks (delta heartbeats, forwarder cache).
// ---------------------------------------------------------------------------

// loopEnd is a synchronous in-process transport end: Send invokes the
// peer's handler inline (no goroutines, no sleeps), which makes heartbeat
// byte accounting deterministic for the steady-state benchmarks.
type loopEnd struct {
	id      topology.NodeID
	peer    *loopEnd
	handler transport.Handler
	// ackless hands the peer every delta with Ack = 0: the peer never
	// learns what this end has merged, so every heartbeat it sends back is
	// the since = 0 full-snapshot fallback — the full-heartbeat baseline.
	ackless bool
}

func (e *loopEnd) Local() topology.NodeID         { return e.id }
func (e *loopEnd) SetHandler(h transport.Handler) { e.handler = h }
func (e *loopEnd) Close() error                   { return nil }
func (e *loopEnd) Send(_ topology.NodeID, frame []byte) error {
	if e.ackless {
		f, err := wire.Decode(frame)
		if err != nil {
			return err
		}
		if f.Kind == wire.FrameKnowledgeDelta {
			f.Delta.Ack = 0
		}
		if frame, err = wire.Encode(f); err != nil {
			return err
		}
	}
	if e.peer.handler != nil {
		e.peer.handler(e.id, frame)
	}
	return nil
}

// loopPair wires two synchronous ends back to back; full makes both
// ends ackless.
func loopPair(full bool) (*loopEnd, *loopEnd) {
	a := &loopEnd{id: 0, ackless: full}
	b := &loopEnd{id: 1, ackless: full}
	a.peer, b.peer = b, a
	return a, b
}

// tickPair advances both nodes one period and yields until both nodes'
// lanes are idle: every heartbeat of the period has been flushed onto
// the loop transport, whose Send hands it to the peer inline, so each
// period starts from the same delivered state and a run repeats its
// byte counts exactly. Without the yield a tight benchmark loop on
// GOMAXPROCS=1 starves the drains entirely — no frame is ever
// delivered, acks never flow, and the "steady state" being measured is
// a cluster that has never heard from itself; with a single yield, how
// much of a period had drained before the next one varied from run to
// run. The drain is inside the timed region: ns/op includes it.
func tickPair(n0, n1 *node.Node) {
	n0.Tick()
	n1.Tick()
	for !n0.WaitSendIdle(0) || !n1.WaitSendIdle(0) {
		runtime.Gosched()
	}
}

// BenchmarkHeartbeatSteadyState measures the per-period heartbeat cost of
// a converged two-node system on the live wire path. The delta/full
// sub-benchmarks quantify the knowledge-delta win: on this lossless
// link, once estimates converge, delta heartbeats collapse to near-empty
// frames — each side's records are the peer's own, or the link between
// them, which split horizon leaves out, or its own self record, which
// stops moving past DeltaEpsilon — while full snapshots (the since = 0
// fallback, forced by an ackless loop) keep re-shipping the whole
// (Λ_k, C_k) every period. On lossy links deltas stay non-empty far
// longer (see knowledge.Params.DeltaEpsilon). The hb-bytes/period metric
// is the acceptance number recorded in the README.
func BenchmarkHeartbeatSteadyState(b *testing.B) {
	for _, mode := range []struct {
		name string
		full bool
	}{{"delta", false}, {"full", true}} {
		b.Run(mode.name, func(b *testing.B) {
			trA, trB := loopPair(mode.full)
			mk := func(id topology.NodeID, tr transport.Transport) *node.Node {
				nd, err := node.New(node.Config{
					ID:        id,
					NumProcs:  2,
					Neighbors: []topology.NodeID{1 - id},
				}, tr)
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(nd.Stop)
				return nd
			}
			n0, n1 := mk(0, trA), mk(1, trB)
			for i := 0; i < 300; i++ { // converge the estimates
				tickPair(n0, n1)
			}
			start := n0.Stats().HeartbeatBytesSent
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tickPair(n0, n1)
			}
			b.StopTimer()
			spent := n0.Stats().HeartbeatBytesSent - start
			b.ReportMetric(float64(spent)/float64(b.N), "hb-bytes/period")
		})
	}
}

// BenchmarkEpochRebuild measures the cost of one membership epoch change
// on a running cluster — Cluster.AddNode end to end: topology growth,
// joiner construction (estimator allocation for the grown ID space), the
// join announcement, and the epoch adoption (cache invalidation, peer
// re-anchoring) at every member. The cluster is rebuilt every 16 joins
// with the timer paused so the measured work stays a constant-size join,
// not an ever-growing cluster.
func BenchmarkEpochRebuild(b *testing.B) {
	const joinsPerCluster = 16
	var c *adaptivecast.Cluster
	rebuild := func() {
		if c != nil {
			_ = c.Close()
		}
		ring, err := adaptivecast.Ring(8)
		if err != nil {
			b.Fatal(err)
		}
		c, err = adaptivecast.NewCluster(adaptivecast.ClusterConfig{Topology: ring})
		if err != nil {
			b.Fatal(err)
		}
		c.Tick() // one period so views hold initial link knowledge
	}
	rebuild()
	defer func() { _ = c.Close() }()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%joinsPerCluster == 0 {
			b.StopTimer()
			rebuild()
			b.StartTimer()
		}
		if _, err := c.AddNode(adaptivecast.NodeID(i%8), adaptivecast.NodeID((i+3)%8)); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Pipelined send-path benchmarks (lane scheduler, coalescing, zero-alloc
// encode). make bench records the results in BENCH_broadcast.json. Each
// keeps its one sub-benchmark, lanes, so its rows keep their names in the
// ledger.
// ---------------------------------------------------------------------------

// BenchmarkBroadcastSustained measures sustained broadcast throughput
// from the hub of a converged 32-node star: every broadcast fans out to
// all 31 peers directly, so the whole cost lands on (and is drained
// from) node 0's send path — no relay work escapes the timer. Each
// transport flush pays a syscall-sized simulated kernel copy
// (ClusterConfig.SendCost); on a free transport there is no saturation to
// pipeline past and the benchmark would only measure queue overhead. The
// lane queue is deep enough that nothing is shed — queued work still has
// to drain inside the timed region (WaitSendIdle), so the number counts
// transport work actually done, not promises queued.
func BenchmarkBroadcastSustained(b *testing.B) {
	b.Run("lanes", func(b *testing.B) {
		g, err := adaptivecast.Star(32)
		if err != nil {
			b.Fatal(err)
		}
		c := benchConvergeGraph(b, g, func(cfg *adaptivecast.ClusterConfig) {
			cfg.LaneQueueDepth = 1 << 15
			cfg.SendCost = 32 << 10
		})
		body := []byte("sustained broadcast payload 0123456789abcdef0123456789abcdef")
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, _, err := c.Broadcast(0, body); err != nil {
					b.Error(err)
					return
				}
			}
		})
		if !c.Node(0).WaitSendIdle(30 * time.Second) {
			b.Fatal("lanes did not drain")
		}
		b.StopTimer()
		st := c.Stats(0)
		if d := st.LaneDrops; d != (adaptivecast.LaneDrops{}) {
			b.Fatalf("lane drops %+v at depth 2^15 — throughput number would count shed frames", d)
		}
		b.ReportMetric(float64(st.CoalescedFrames)/float64(b.N), "coalesced/op")
	})
}

// pipeFlushBytes is the fixed per-flush cost pipeSink charges: every
// transport call copies this much on top of the frames themselves,
// standing in for the kernel socket-buffer copy of a write(2). Without
// a realistic per-call cost there is nothing for the per-peer drain
// goroutines to overlap and the benchmark would only measure queueing
// overhead.
const pipeFlushBytes = 32 << 10

// pipeSink is the pipelined-forward benchmark's outbound side: a
// transport with per-peer write buffers behind per-peer locks (the shape
// of a TCP transport's connection buffers). Each transport call pays one
// pipeFlushBytes copy under the peer's lock — cost the lane scheduler's
// per-peer drains can run in parallel and its multi-frame flushes can
// amortize.
type pipeSink struct {
	id      topology.NodeID
	handler transport.Handler
	kernel  []byte
	peers   [64]struct {
		mu      sync.Mutex
		scratch []byte
	}
	sends atomic.Int64
}

func newPipeSink(id topology.NodeID) *pipeSink {
	return &pipeSink{id: id, kernel: make([]byte, pipeFlushBytes)}
}

func (s *pipeSink) Local() topology.NodeID         { return s.id }
func (s *pipeSink) SetHandler(h transport.Handler) { s.handler = h }
func (s *pipeSink) Close() error                   { return nil }

// flush models one syscall: a fixed kernel copy plus the frame bytes.
func (s *pipeSink) flush(to topology.NodeID, copies int, frames ...[]byte) error {
	p := &s.peers[to]
	p.mu.Lock()
	p.scratch = append(p.scratch[:0], s.kernel...)
	for _, f := range frames {
		p.scratch = append(p.scratch, f...)
	}
	p.mu.Unlock()
	s.sends.Add(int64(copies))
	return nil
}

func (s *pipeSink) Send(to topology.NodeID, frame []byte) error {
	return s.flush(to, 1, frame)
}

func (s *pipeSink) SendN(to topology.NodeID, frame []byte, n int) error {
	return s.flush(to, n, frame)
}

func (s *pipeSink) SendFrames(to topology.NodeID, batch []transport.FrameBatch) error {
	frames := make([][]byte, 0, len(batch))
	total := 0
	for _, e := range batch {
		if e.Copies <= 0 {
			continue
		}
		frames = append(frames, e.Frame)
		total += e.Copies
	}
	return s.flush(to, total, frames...)
}

// BenchmarkForwardPipelined measures the interior-forwarder hot path
// (decode, tree check, 60-copy fan-out to 30 children) pipelined through
// the per-peer lane drains onto a transport with a per-flush cost.
func BenchmarkForwardPipelined(b *testing.B) {
	const procs = 32
	parents := make([]topology.NodeID, procs)
	alloc := make([]int32, procs)
	parents[0] = topology.None
	parents[1] = 0
	alloc[1] = 1
	for i := 2; i < procs; i++ {
		parents[i] = 1
		alloc[i] = 2
	}

	b.Run("lanes", func(b *testing.B) {
		sink := newPipeSink(1)
		nd, err := node.New(node.Config{
			ID:             1,
			NumProcs:       procs,
			Neighbors:      []topology.NodeID{0},
			LaneQueueDepth: 1 << 15,
			DeliveryBuffer: 1, // deliveries overflow silently; not under test
		}, sink)
		if err != nil {
			b.Fatal(err)
		}
		defer nd.Stop()
		body := []byte("fanout payload 0123456789abcdef")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			frame, err := wire.Encode(&wire.Frame{Kind: wire.FrameData, Data: &wire.DataMsg{
				Origin:      0,
				Seq:         uint64(i + 1),
				Root:        0,
				Parents:     parents,
				AllocByNode: alloc,
				Body:        body,
			}})
			if err != nil {
				b.Fatal(err)
			}
			sink.handler(0, frame)
		}
		if !nd.WaitSendIdle(30 * time.Second) {
			b.Fatal("lanes did not drain")
		}
		b.StopTimer()
		if want := int64(b.N) * 60; sink.sends.Load() != want {
			b.Fatalf("forwarded %d copies, want %d", sink.sends.Load(), want)
		}
	})
}

// BenchmarkControlLatencyUnderLoad measures control-frame *delivery*
// latency — scheduler enqueue to receiver handler, over a fabric link
// with realistic latency and per-flush send cost — idle versus with the
// data lane saturated by a background enqueuer. The lane scheduler's
// acceptance bar is that this stays flat (<= 1.2x the idle baseline):
// control preempts queued data at every drain round, so a saturated
// datapath adds at most one in-flight data flush of delay — noise
// against the link latency.
func BenchmarkControlLatencyUnderLoad(b *testing.B) {
	for _, mode := range []struct {
		name     string
		saturate bool
	}{{"idle", false}, {"saturated", true}} {
		b.Run(mode.name, func(b *testing.B) {
			// The heavy SendCost (vs the sustained benchmark's 32K) keeps
			// the drain inside SendFrames — where it holds no lock — for
			// most of its cycle, so the saturator below can always build
			// the data queue past its depth instead of ping-ponging with
			// collect() on the peer mutex.
			f := transport.NewFabric(transport.FabricOptions{
				Latency:   200 * time.Microsecond,
				SendCost:  256 << 10,
				QueueSize: 1 << 16, // don't let receiver overflow eat the probe
			})
			defer func() { _ = f.Close() }()
			sender := f.Endpoint(0)
			receiver := f.Endpoint(1)
			// A probe is 0xC0 and its index; the handler never blocks, and a
			// probe that arrives after it was counted lost is ignored.
			arrived := make(chan uint64, 1<<10)
			receiver.SetHandler(func(from topology.NodeID, frame []byte) {
				if len(frame) == 9 && frame[0] == 0xC0 {
					select {
					case arrived <- binary.LittleEndian.Uint64(frame[1:]):
					default:
					}
				}
			})
			s := lanes.New(sender, lanes.Config{QueueDepth: 256})
			defer func() { _ = s.Close() }()

			stop := make(chan struct{})
			var wg sync.WaitGroup
			if mode.saturate {
				data := make([]byte, 256)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						// Burst until the lane sheds, then yield: every cycle
						// provably pins the data lane at its depth (the shed
						// is the point). Gosched rather than Sleep — sleep
						// granularity on a single-core box is ~1ms, long
						// enough for the drain to empty the queue entirely
						// between bursts, which would leave the lane idle for
						// most of each measured op. The iteration cap keeps a
						// stuck drain from turning this into a spin lock.
						base := s.Stats().Drops.Data
						for j := 0; j < 4096 && s.Stats().Drops.Data == base; j++ {
							if err := s.Enqueue(1, lanes.Data, data, 2, nil); err != nil {
								return
							}
						}
						runtime.Gosched()
					}
				}()
				// Pin the lane before the timed region. The benchmark
				// runner's b.N=1 probe run is a single ~1ms op — too short
				// for the background enqueuer to provably reach the shed
				// watermark on its own — and a b.Fatal there kills the
				// whole sub-benchmark before the real run starts.
				for i := 0; s.Stats().Drops.Data == 0; i++ {
					if i > 1<<20 {
						b.Fatal("could not saturate the data lane")
					}
					if err := s.Enqueue(1, lanes.Data, data, 2, nil); err != nil {
						b.Fatal(err)
					}
				}
			}
			// The lanes never shed a control frame, but a full receiver
			// inbox drops a whole routed flush, probe included. So once a
			// probe has left the lanes (its release ran), a rise in the
			// fabric's Overflows before it arrives counts it lost (lost/op)
			// and the run goes on to the next probe. A probe neither
			// delivered nor lost within the deadline fails the run with the
			// counters that say where it went, instead of hanging it.
			const deadline = 10 * time.Second
			timeout := time.NewTimer(deadline)
			defer timeout.Stop()
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			flushed := make(chan struct{}, 1)
			release := func() { flushed <- struct{}{} }
			ctl := make([]byte, 9)
			ctl[0] = 0xC0
			lost := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				binary.LittleEndian.PutUint64(ctl[1:], uint64(i))
				timeout.Reset(deadline)
				if err := s.Enqueue(1, lanes.Control, ctl, 1, release); err != nil {
					b.Fatal(err)
				}
				select {
				case <-flushed:
				case <-timeout.C:
					b.Fatalf("control frame %d of %d did not leave the lanes within %v; scheduler %+v",
						i+1, b.N, deadline, s.Stats())
				}
				overflows := f.Stats().Overflows
			wait:
				for {
					select {
					case id := <-arrived:
						if id == uint64(i) {
							break wait
						}
					case <-tick.C:
						if f.Stats().Overflows > overflows {
							lost++
							break wait
						}
					case <-timeout.C:
						fs := f.Stats()
						b.Fatalf("control frame %d of %d neither delivered nor lost within %v: fabric overflows %d, fault drops %d; scheduler %+v",
							i+1, b.N, deadline, fs.Overflows, fs.FaultDrops, s.Stats())
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(lost)/float64(b.N), "lost/op")
			close(stop)
			wg.Wait()
			if mode.saturate && s.Stats().Drops.Data == 0 {
				b.Fatal("no data shed: the lane never saturated, so the latency number proves nothing")
			}
		})
	}
}
