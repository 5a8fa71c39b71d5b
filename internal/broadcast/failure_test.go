package broadcast

import (
	"testing"

	"adaptivecast/internal/config"
	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/sim"
	"adaptivecast/internal/topology"
)

// TestCrashedRelayDegradesThenRecovers injects an explicit crash into a
// relay node mid-run: broadcasts planned while the relay is down cannot
// cross it, and after recovery plus re-convergence the full tree works
// again — the adaptation loop end to end.
func TestCrashedRelayDegradesThenRecovers(t *testing.T) {
	// Line topology: 0 - 1 - 2. Node 1 is the only relay.
	g, err := topology.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.New(g)
	eng := sim.NewEngine(41)
	net := sim.NewNetwork(eng, cfg, sim.Options{})
	delivered := make(map[topology.NodeID]int)
	r, err := NewRunner(net, RunnerOptions{}, func(id topology.NodeID, d Delivery) {
		delivered[id]++
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	eng.RunUntil(10) // learn the topology

	// Healthy broadcast reaches everyone.
	if _, _, err := r.Proc(0).Broadcast([]byte("healthy")); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(11)
	if delivered[2] != 1 {
		t.Fatalf("node 2 delivered %d, want 1 before the crash", delivered[2])
	}

	// Crash the relay: node 2 is unreachable no matter the allocation.
	net.Crash(1)
	if _, _, err := r.Proc(0).Broadcast([]byte("during-crash")); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(20)
	if delivered[2] != 1 {
		t.Fatalf("node 2 delivered %d during the crash, want still 1", delivered[2])
	}
	// The origin's view noticed the silence: node 1's crash estimate
	// worsened.
	meanDuring, _ := r.Views()[0].CrashEstimate(1)

	// Recover; the relay resumes heartbeating and eventually relays again.
	net.Recover(1)
	eng.RunUntil(40)
	if _, _, err := r.Proc(0).Broadcast([]byte("recovered")); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(41)
	if delivered[2] != 2 {
		t.Fatalf("node 2 delivered %d after recovery, want 2", delivered[2])
	}
	meanAfter, _ := r.Views()[0].CrashEstimate(1)
	if meanAfter >= meanDuring {
		t.Errorf("crash estimate did not recover: during=%v after=%v", meanDuring, meanAfter)
	}
}

// TestPartitionHealing cuts the only bridge of a barbell topology by
// setting its loss probability to 1, lets the views decay, heals it, and
// checks estimates and broadcasts recover. The ground-truth config is
// mutated mid-run — exactly the "dynamic environment" the adaptive
// algorithm is for.
func TestPartitionHealing(t *testing.T) {
	// Barbell: triangle 0-1-2, triangle 3-4-5, bridge 2-3.
	g := topology.New(6)
	for _, pair := range [][2]topology.NodeID{
		{0, 1}, {1, 2}, {0, 2},
		{3, 4}, {4, 5}, {3, 5},
		{2, 3},
	} {
		if _, err := g.AddLink(pair[0], pair[1]); err != nil {
			t.Fatal(err)
		}
	}
	cfg := config.New(g)
	eng := sim.NewEngine(43)
	net := sim.NewNetwork(eng, cfg, sim.Options{})
	delivered := make(map[topology.NodeID]int)
	r, err := NewRunner(net, RunnerOptions{}, func(id topology.NodeID, d Delivery) {
		delivered[id]++
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	eng.RunUntil(15)

	bridge := topology.NewLink(2, 3)
	healthyLoss, _, ok := r.Views()[2].LossEstimate(bridge)
	if !ok {
		t.Fatal("bridge unknown before partition")
	}
	healthyCrash, _ := r.Views()[2].CrashEstimate(3)

	// Partition: the bridge now loses everything.
	bridgeIdx := g.LinkIndex(2, 3)
	if err := cfg.SetLoss(bridgeIdx, 1); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(65) // 50 periods of partition

	// Under pure silence the *link* estimate stays frozen by design
	// (evidence comes only from sequence gaps, which need a receipt; see
	// the knowledge package comment) while the *process* estimate decays
	// through Event 2 suspicions.
	partitionLoss, _, _ := r.Views()[2].LossEstimate(bridge)
	if partitionLoss != healthyLoss {
		t.Errorf("bridge loss estimate moved on pure silence: %v -> %v",
			healthyLoss, partitionLoss)
	}
	partitionCrash, _ := r.Views()[2].CrashEstimate(3)
	if partitionCrash <= healthyCrash {
		t.Errorf("far node's crash estimate did not decay: %v -> %v",
			healthyCrash, partitionCrash)
	}
	// A broadcast during the partition stays on its side.
	if _, _, err := r.Proc(0).Broadcast([]byte("split")); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(66)
	if delivered[4] != 0 {
		t.Fatal("message crossed a fully lossy bridge")
	}

	// Heal. The first post-heal receipt reveals the 50-heartbeat sequence
	// gap: the loss estimate spikes, then decays as successes accumulate.
	if err := cfg.SetLoss(bridgeIdx, 0); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(70)
	postHealLoss, _, _ := r.Views()[2].LossEstimate(bridge)
	if postHealLoss <= healthyLoss {
		t.Errorf("sequence gap did not register: %v -> %v", healthyLoss, postHealLoss)
	}
	eng.RunUntil(1500)
	relearnedLoss, _, _ := r.Views()[2].LossEstimate(bridge)
	if relearnedLoss >= postHealLoss {
		t.Errorf("bridge loss estimate did not re-learn: %v after heal, %v later",
			postHealLoss, relearnedLoss)
	}
	relearnedCrash, _ := r.Views()[2].CrashEstimate(3)
	if relearnedCrash >= partitionCrash {
		t.Errorf("far node's crash estimate did not recover: %v -> %v",
			partitionCrash, relearnedCrash)
	}
	if _, _, err := r.Proc(0).Broadcast([]byte("healed")); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(1501)
	for i := 3; i < 6; i++ {
		if delivered[topology.NodeID(i)] == 0 {
			t.Errorf("node %d never delivered after healing", i)
		}
	}
}

// TestAdaptiveRoutesAroundLossyLink gives the knowledge layer two paths of
// different quality and checks the planned tree avoids the bad one — the
// introduction's scenario on the live sim stack.
func TestAdaptiveRoutesAroundLossyLink(t *testing.T) {
	g := topology.TwoPaths() // 0-2-1 (good), 0-3-1 (bad)
	cfg := config.New(g)
	for _, link := range [][2]topology.NodeID{{0, 3}, {3, 1}} {
		if err := cfg.SetLossBetween(link[0], link[1], 0.4); err != nil {
			t.Fatal(err)
		}
	}
	eng := sim.NewEngine(47)
	net := sim.NewNetwork(eng, cfg, sim.Options{})
	r, err := NewRunner(net, RunnerOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.Start()

	// Converge the estimates.
	crit := knowledge.DefaultCriterion
	for at := sim.Time(50); at <= 3000; at += 50 {
		eng.RunUntil(at)
		if r.AllConverged(crit) {
			break
		}
	}
	if !r.AllConverged(crit) {
		t.Fatal("no convergence")
	}
	pl, _ := r.Proc(0).core.Data().Plan()
	if pl.Err != nil {
		t.Fatal(pl.Err)
	}
	if pl.Parents[1] != 2 {
		t.Errorf("destination parented to %d, want 2 (the reliable relay)", pl.Parents[1])
	}
}
