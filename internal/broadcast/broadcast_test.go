package broadcast

import (
	"math"
	"math/rand"
	"testing"

	"adaptivecast/internal/config"
	"adaptivecast/internal/dataplane"
	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/mrt"
	"adaptivecast/internal/optimize"
	"adaptivecast/internal/sim"
	"adaptivecast/internal/topology"
)

// buildOptimalCluster registers an optimal-protocol process on every node
// and returns them plus a delivery counter per node.
func buildOptimalCluster(t *testing.T, net *sim.Network, k float64) ([]*Proc, []int) {
	t.Helper()
	n := net.Graph().NumNodes()
	procs := make([]*Proc, n)
	delivered := make([]int, n)
	for i := 0; i < n; i++ {
		i := i
		p, err := NewOptimal(net, topology.NodeID(i), k, func(Delivery) { delivered[i]++ })
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = p
		if err := net.Register(topology.NodeID(i), p); err != nil {
			t.Fatal(err)
		}
	}
	return procs, delivered
}

func TestOptimalBroadcastReliableNetwork(t *testing.T) {
	g, err := topology.RandomConnected(12, 3, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.New(g)
	eng := sim.NewEngine(2)
	net := sim.NewNetwork(eng, cfg, sim.Options{})
	procs, delivered := buildOptimalCluster(t, net, dataplane.DefaultK)

	id, total, err := procs[0].Broadcast([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()

	// On a reliable network the optimal allocation is one message per MRT
	// edge: exactly n-1 data messages.
	if total != 11 {
		t.Errorf("planned messages = %d, want 11", total)
	}
	if got := net.Stats().Sent(sim.KindData); got != 11 {
		t.Errorf("sent messages = %d, want 11", got)
	}
	for i, d := range delivered {
		if d != 1 {
			t.Errorf("node %d delivered %d times, want exactly 1", i, d)
		}
	}
	if !procs[7].HasDelivered(id) {
		t.Error("HasDelivered = false after delivery")
	}
}

func TestOptimalPlannedCountMatchesOptimize(t *testing.T) {
	g, err := topology.Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := config.Uniform(g, 0, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(3)
	net := sim.NewNetwork(eng, cfg, sim.Options{})
	procs, _ := buildOptimalCluster(t, net, 0.999)

	p := procs[0]
	tree, err := mrt.Build(g, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	lams, err := tree.Lambdas(cfg)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := optimize.Greedy(lams, 0.999, optimize.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r := optimize.Reach(lams, alloc); r < 0.999*(1-1e-12) {
		t.Errorf("planned reach %v below K", r)
	}
	_, total, err := p.Broadcast([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if total != optimize.Total(alloc) {
		t.Errorf("broadcast total %d != plan total %d", total, optimize.Total(alloc))
	}
}

// TestOptimalReachMeetsK is the core probabilistic guarantee: over many
// independent trials, the fraction in which *all* processes deliver must
// be at least K (within Monte-Carlo noise).
func TestOptimalReachMeetsK(t *testing.T) {
	const (
		k      = 0.99
		trials = 1500
	)
	g, err := topology.Ring(6)
	if err != nil {
		t.Fatal(err)
	}
	full := 0
	for trial := 0; trial < trials; trial++ {
		cfg, err := config.Uniform(g, 0, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		eng := sim.NewEngine(int64(trial))
		net := sim.NewNetwork(eng, cfg, sim.Options{})
		procs, delivered := buildOptimalCluster(t, net, k)
		if _, _, err := procs[0].Broadcast([]byte{byte(trial)}); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		all := true
		for _, d := range delivered {
			if d == 0 {
				all = false
				break
			}
		}
		if all {
			full++
		}
	}
	frac := float64(full) / trials
	// Allow ~3σ of binomial noise below K.
	sigma := math.Sqrt(k * (1 - k) / trials)
	if frac < k-3*sigma-0.002 {
		t.Errorf("full-reach fraction = %v, want >= %v", frac, k)
	}
}

func TestBroadcastDeliversOncePerMessage(t *testing.T) {
	g, err := topology.Ring(5)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := config.Uniform(g, 0, 0.3) // heavy loss → multi-copy allocation
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(5)
	net := sim.NewNetwork(eng, cfg, sim.Options{})
	procs, delivered := buildOptimalCluster(t, net, 0.999)

	for b := 0; b < 3; b++ {
		if _, _, err := procs[0].Broadcast([]byte{byte(b)}); err != nil {
			t.Fatal(err)
		}
		eng.Run()
	}
	for i, d := range delivered {
		if d > 3 {
			t.Errorf("node %d delivered %d times for 3 broadcasts (duplicates leaked)", i, d)
		}
	}
	if delivered[0] != 3 {
		t.Errorf("origin delivered %d, want 3", delivered[0])
	}
}

func TestNewProcRejectsBadK(t *testing.T) {
	g, err := topology.Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	net := sim.NewNetwork(sim.NewEngine(1), config.New(g), sim.Options{})
	for _, k := range []float64{0, 1, -0.5, 1.5, math.NaN()} {
		if _, err := NewOptimal(net, 0, k, nil); err == nil {
			t.Errorf("K=%v should fail", k)
		}
	}
}

func TestOptimalBroadcastDisconnectedFails(t *testing.T) {
	g := topology.New(4)
	if _, err := g.AddLink(0, 1); err != nil {
		t.Fatal(err)
	}
	net := sim.NewNetwork(sim.NewEngine(1), config.New(g), sim.Options{})
	p, err := NewOptimal(net, 0, 0.99, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Broadcast([]byte("x")); err == nil {
		t.Error("broadcast on a disconnected topology should fail for the optimal protocol")
	}
}

func TestAdaptiveFallbackFloodBeforeConvergence(t *testing.T) {
	g, err := topology.Ring(6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.New(g) // reliable, so the flood reaches everyone
	eng := sim.NewEngine(7)
	net := sim.NewNetwork(eng, cfg, sim.Options{})
	deliveredBy := make([]bool, 6)
	r, err := NewRunner(net, RunnerOptions{}, func(id topology.NodeID, d Delivery) {
		deliveredBy[id] = true
	})
	if err != nil {
		t.Fatal(err)
	}
	// No heartbeat periods have run: each view knows only its own links,
	// the estimated topology is disconnected, so the proc must flood.
	p := r.Proc(0)
	if _, _, err := p.Broadcast([]byte("early")); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if p.FallbackFloods != 1 {
		t.Errorf("FallbackFloods = %d, want 1", p.FallbackFloods)
	}
	for i, ok := range deliveredBy {
		if !ok {
			t.Errorf("node %d missed the flooded broadcast", i)
		}
	}
}

// TestAdaptiveConvergesToOptimal is Definition 2 end-to-end: after the
// knowledge layer converges, the adaptive protocol's planned message count
// matches the optimal protocol's (up to the quantization of the Bayesian
// interval estimates).
func TestAdaptiveConvergesToOptimal(t *testing.T) {
	const trueLoss = 0.05
	g, err := topology.RandomConnected(8, 3, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := config.Uniform(g, 0, trueLoss)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(13)
	net := sim.NewNetwork(eng, cfg, sim.Options{DisableCrashSampling: true})
	r, err := NewRunner(net, RunnerOptions{ModelCrashesAsSkips: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	crit := knowledge.Criterion{Slack: 1, MinBelief: 0.3}
	deadline := sim.Time(6000)
	var converged bool
	for at := sim.Time(50); at <= deadline; at += 50 {
		eng.RunUntil(at)
		if r.AllConverged(crit) {
			converged = true
			break
		}
	}
	if !converged {
		t.Fatal("views did not converge")
	}
	r.Stop()

	_, adaptiveTotal, err := r.Proc(0).Broadcast([]byte("converged"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Proc(0).FallbackFloods != 0 {
		t.Fatal("adaptive proc flooded after convergence")
	}

	opt, err := NewOptimal(net, 0, dataplane.DefaultK, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, optimalTotal, err := opt.Broadcast([]byte("truth"))
	if err != nil {
		t.Fatal(err)
	}

	// The Bayesian posterior mean quantizes the loss estimate to ~1/2U
	// precision, so allow a small relative gap.
	diff := math.Abs(float64(adaptiveTotal - optimalTotal))
	if diff > 0.15*float64(optimalTotal)+2 {
		t.Errorf("adaptive total %d too far from optimal %d", adaptiveTotal, optimalTotal)
	}
}

func TestRunnerHeartbeatAccounting(t *testing.T) {
	g, err := topology.Ring(6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.New(g)
	eng := sim.NewEngine(17)
	net := sim.NewNetwork(eng, cfg, sim.Options{})
	r, err := NewRunner(net, RunnerOptions{Delta: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	r.Start() // idempotent
	eng.RunUntil(10.5)
	r.Stop()
	eng.Run()

	if r.Periods() != 10 {
		t.Errorf("periods = %d, want 10", r.Periods())
	}
	// 6 nodes × 2 neighbors × 10 periods = 120 heartbeats.
	if got := net.Stats().Sent(sim.KindHeartbeat); got != 120 {
		t.Errorf("heartbeats = %d, want 120", got)
	}
	// Each heartbeat weighs its encoded frame: at least the 3-byte
	// header, five delta header fields and four section head fields, and
	// on a 6-ring at most six process and six link records of a few
	// bytes each.
	if got := net.Stats().SentBytes(sim.KindHeartbeat); got < 120*12 || got > 120*128 {
		t.Errorf("heartbeat bytes = %d, want within [%d, %d]", got, 120*12, 120*128)
	}
}

func TestRunnerCrashSkipsFeedSelfEstimate(t *testing.T) {
	const crashP = 0.3
	g, err := topology.Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := config.Uniform(g, crashP, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(19)
	net := sim.NewNetwork(eng, cfg, sim.Options{DisableCrashSampling: true})
	r, err := NewRunner(net, RunnerOptions{ModelCrashesAsSkips: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	eng.RunUntil(3000)
	r.Stop()
	eng.Run()

	for i, v := range r.Views() {
		mean, _ := v.CrashEstimate(topology.NodeID(i))
		if math.Abs(mean-crashP) > 0.05 {
			t.Errorf("node %d self crash estimate = %v, want ≈%v", i, mean, crashP)
		}
	}
}

func TestExplicitCrashSuppressesHeartbeats(t *testing.T) {
	g, err := topology.Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.New(g)
	eng := sim.NewEngine(23)
	net := sim.NewNetwork(eng, cfg, sim.Options{})
	r, err := NewRunner(net, RunnerOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	net.Crash(2)
	r.Start()
	eng.RunUntil(5.5)
	r.Stop()
	eng.Run()
	// Node 2 sent nothing: 3 active nodes × 2 neighbors × 5 periods.
	if got := net.Stats().Sent(sim.KindHeartbeat); got != 30 {
		t.Errorf("heartbeats = %d, want 30 with node 2 down", got)
	}
	if r.Views()[2].SelfSeq() != 0 {
		t.Errorf("crashed node consumed sequence numbers")
	}
}

// TestPiggybackSpreadsKnowledge exercises the paper's Section 4.1
// optimization: with piggybacking on, data traffic alone (no heartbeat
// periods) spreads topology knowledge through the cluster.
func TestPiggybackSpreadsKnowledge(t *testing.T) {
	g, err := topology.Ring(6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.New(g)
	eng := sim.NewEngine(29)
	net := sim.NewNetwork(eng, cfg, sim.Options{})
	r, err := NewRunner(net, RunnerOptions{Piggyback: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// No heartbeats at all: knowledge can only move on data messages.
	for round := 0; round < 6; round++ {
		if _, _, err := r.Proc(topology.NodeID(round)).Broadcast([]byte{byte(round)}); err != nil {
			t.Fatal(err)
		}
		eng.Run()
	}
	// Each flooded broadcast carried the forwarders' views; after a few
	// rounds every node has heard of far more links than its own two.
	for i, v := range r.Views() {
		if got := len(v.KnownLinks()); got < 4 {
			t.Errorf("node %d knows only %d links with piggybacking on", i, got)
		}
	}

	// Control: without piggybacking, data traffic must not leak topology.
	eng2 := sim.NewEngine(29)
	net2 := sim.NewNetwork(eng2, cfg, sim.Options{})
	r2, err := NewRunner(net2, RunnerOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 6; round++ {
		if _, _, err := r2.Proc(topology.NodeID(round)).Broadcast([]byte{byte(round)}); err != nil {
			t.Fatal(err)
		}
		eng2.Run()
	}
	for i, v := range r2.Views() {
		if got := len(v.KnownLinks()); got != 2 {
			t.Errorf("node %d knows %d links without piggybacking, want 2", i, got)
		}
	}
}

// TestRelayFloodExcludesSender: the twin relays a flooded warm-up message
// by the data plane's rule, as a node does: on to every neighbour but the
// one it came from. One broadcast down the line 0 — 1 — 2, before any
// heartbeat, costs two data messages, the counts the node's test of the
// same name reads; echoing each flood back to its sender cost four.
func TestRelayFloodExcludesSender(t *testing.T) {
	g, err := topology.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(3)
	net := sim.NewNetwork(eng, config.New(g), sim.Options{})
	delivered := make([]int, 3)
	r, err := NewRunner(net, RunnerOptions{}, func(id topology.NodeID, _ Delivery) { delivered[id]++ })
	if err != nil {
		t.Fatal(err)
	}
	if _, planned, err := r.Proc(0).Broadcast([]byte("warmup")); err != nil || planned != 1 {
		t.Fatalf("the warm-up broadcast planned %d messages (%v), want a flood of 1", planned, err)
	}
	eng.Run()
	if got := net.Stats().Sent(sim.KindData); got != 2 {
		t.Errorf("the flood sent %d data messages, want 2", got)
	}
	for i, d := range delivered {
		if d != 1 {
			t.Errorf("node %d delivered %d times, want once", i, d)
		}
	}
}

// TestStaleTreeEdgeStarvesNoSibling: a copy the plan sends over a link the
// true topology has lost is lost like any other, and the origin's other
// child still gets its copies. The hub of a 3-star plans over both links;
// the more reliable one, 0 — 1, leaves the truth before it broadcasts.
func TestStaleTreeEdgeStarvesNoSibling(t *testing.T) {
	g, err := topology.Star(3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.New(g)
	if err := cfg.SetLossBetween(0, 2, 0.1); err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(5)
	net := sim.NewNetwork(eng, cfg, sim.Options{})
	delivered := make([]int, 3)
	r, err := NewRunner(net, RunnerOptions{}, func(id topology.NodeID, _ Delivery) { delivered[id]++ })
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	eng.RunUntil(40.5)
	r.Stop()
	eng.Run()
	removed, _, err := g.RemoveLink(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.RemoveLinkAt(removed); err != nil {
		t.Fatal(err)
	}

	sent := net.Stats().Sent(sim.KindData)
	if _, _, err := r.Proc(0).Broadcast([]byte("stale")); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if delivered[1] != 0 || delivered[2] != 1 {
		t.Errorf("nodes 1 and 2 delivered %d and %d times, want 0 and 1", delivered[1], delivered[2])
	}
	if got := net.Stats().Sent(sim.KindData) - sent; got < 2 {
		t.Errorf("the broadcast sent %d data messages over the lossy live link, want its m[j] >= 2", got)
	}
}
