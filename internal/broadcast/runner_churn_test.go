package broadcast

import (
	"testing"

	"adaptivecast/internal/config"
	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/sim"
	"adaptivecast/internal/topology"
	"adaptivecast/internal/wire"
)

// churnRunner builds a small twin cluster used by the churn tests.
func churnRunner(t *testing.T, n int, loss float64, seed int64, sink func(topology.NodeID, Delivery)) (*Runner, *sim.Network) {
	t.Helper()
	g, err := topology.Ring(n)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := config.Uniform(g, 0, loss)
	if err != nil {
		t.Fatal(err)
	}
	net := sim.NewNetwork(sim.NewEngine(seed), cfg, sim.Options{DisableCrashSampling: true})
	r, err := NewRunner(net, RunnerOptions{Delta: 1}, sink)
	if err != nil {
		t.Fatal(err)
	}
	return r, net
}

func TestRunnerGrowJoinsTheCluster(t *testing.T) {
	delivered := make(map[topology.NodeID]int)
	r, net := churnRunner(t, 4, 0, 1, func(id topology.NodeID, _ Delivery) {
		delivered[id]++
	})
	eng := net.Engine()
	r.Start()
	eng.RunUntil(5.5)

	id, err := r.Grow([]topology.NodeID{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if id != 4 {
		t.Fatalf("new node id = %d, want 4", id)
	}
	if net.Graph().NumLinks() != 6 {
		t.Fatalf("links = %d, want 6", net.Graph().NumLinks())
	}
	// The twin's layers must have grown in lockstep.
	if got := len(net.Config().Graph().Neighbors(id)); got != 2 {
		t.Fatalf("joiner degree = %d, want 2", got)
	}

	// Let knowledge spread, then broadcast from the joiner: everyone
	// (including the joiner itself) must deliver.
	eng.RunUntil(30.5)
	if _, _, err := r.Proc(id).Broadcast([]byte("from joiner")); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(40.5)
	r.Stop()
	eng.Run()
	for i := 0; i < 5; i++ {
		if delivered[topology.NodeID(i)] == 0 {
			t.Errorf("node %d missed the joiner's broadcast", i)
		}
	}
	// And the grown cluster converges to the grown ground truth.
	if !r.AllConverged(knowledge.DefaultCriterion) {
		t.Error("grown cluster did not converge")
	}
}

func TestRunnerMarkDepartedRemovesNode(t *testing.T) {
	delivered := make(map[topology.NodeID]int)
	r, net := churnRunner(t, 5, 0, 2, func(id topology.NodeID, _ Delivery) {
		delivered[id]++
	})
	eng := net.Engine()
	r.Start()
	eng.RunUntil(10.5)

	// Departing node 1 leaves a ring gap: 0—2 are no longer connected
	// through 1, but the ring's other arc still spans the survivors.
	if err := r.MarkDeparted(1); err != nil {
		t.Fatal(err)
	}
	if err := r.MarkDeparted(1); err == nil {
		t.Fatal("double departure accepted")
	}
	if net.Graph().Active(1) {
		t.Fatal("graph still lists departed node as active")
	}
	if got := net.Graph().NumLinks(); got != 3 {
		t.Fatalf("links after departure = %d, want 3", got)
	}
	// Config loss slice must have shrunk in lockstep (swap-removal).
	if got := len(net.Config().Graph().Links()); got != 3 {
		t.Fatalf("config graph links = %d, want 3", got)
	}

	// The announcer, neighbor 0, tombstones the departed member at once;
	// the other survivors as the leave announcement's flood reaches them,
	// all at its epoch...
	if !r.Views()[0].Departed(1) {
		t.Error("the announcer has not tombstoned node 1")
	}
	eng.RunUntil(11.5)
	for _, i := range []topology.NodeID{0, 2, 3, 4} {
		if !r.Views()[i].Departed(1) {
			t.Errorf("view %d has not tombstoned node 1", i)
		}
		if got, want := r.Proc(i).Core().Epoch(), r.Proc(0).Core().Epoch(); got != want || got == 0 {
			t.Errorf("survivor %d at epoch %d, the announcer at %d", i, got, want)
		}
	}

	// ...knowledge reconverges to the shrunken truth, and broadcasts
	// still reach every survivor.
	eng.RunUntil(40.5)
	if _, _, err := r.Proc(0).Broadcast([]byte("survivors")); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(50.5)
	r.Stop()
	eng.Run()
	for _, i := range []topology.NodeID{0, 2, 3, 4} {
		if delivered[i] == 0 {
			t.Errorf("survivor %d missed the broadcast", i)
		}
	}
	if delivered[1] != 0 {
		t.Errorf("departed node delivered %d broadcasts", delivered[1])
	}
	if !r.AllConverged(knowledge.DefaultCriterion) {
		t.Error("survivors did not reconverge after departure")
	}
}

// TestNewRunnerStartsAtTheLedgerEpoch: a twin built over a graph that
// has seen membership changes starts where the ledger stands. On a
// ring(4) whose ledger added a fifth process and removed it again, every
// live core starts at the graph's epoch with the fifth tombstoned, the
// tombstone gets no process, no heartbeat in 20 periods is addressed to
// it, and a probe reaches all four processes.
func TestNewRunnerStartsAtTheLedgerEpoch(t *testing.T) {
	g, err := topology.Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	gone := g.AddNode()
	if _, err := g.AddLink(gone, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.RemoveNode(gone); err != nil {
		t.Fatal(err)
	}
	net := sim.NewNetwork(sim.NewEngine(5), config.New(g), sim.Options{DisableCrashSampling: true})
	delivered := make(map[topology.NodeID]int)
	r, err := NewRunner(net, RunnerOptions{Delta: 1}, func(id topology.NodeID, _ Delivery) { delivered[id]++ })
	if err != nil {
		t.Fatal(err)
	}
	if p := r.Proc(gone); p != nil {
		t.Errorf("the tombstone %d got a process", gone)
	}
	for i := range topology.NodeID(4) {
		c := r.Proc(i).Core()
		if c.Epoch() != g.Epoch() || !c.View().Departed(gone) {
			t.Errorf("process %d starts at epoch %d (tombstone known: %v), the ledger is at %d",
				i, c.Epoch(), c.View().Departed(gone), g.Epoch())
		}
	}
	eng := net.Engine()
	r.Start()
	eng.RunUntil(20.5)
	// Each ring process heartbeats its two neighbours every period; a
	// heartbeat addressed to the tombstone would be counted by the runner
	// and refused by the network, which has no link to it.
	if got, sent := r.HeartbeatsSent(), net.Stats().Sent(sim.KindHeartbeat); got != 20*8 || sent != got {
		t.Errorf("%d heartbeats cut and %d sent in 20 periods, want %d of each", got, sent, 20*8)
	}
	if _, _, err := r.Proc(0).Broadcast([]byte("probe")); err != nil {
		t.Fatal(err)
	}
	r.Stop()
	eng.Run()
	for i := range topology.NodeID(4) {
		if delivered[i] != 1 {
			t.Errorf("process %d delivered the probe %d times", i, delivered[i])
		}
	}
	if delivered[gone] != 0 {
		t.Errorf("the tombstone delivered %d messages", delivered[gone])
	}
}

func TestRunnerClockSkewStillDelivers(t *testing.T) {
	g, err := topology.Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.New(g)
	net := sim.NewNetwork(sim.NewEngine(3), cfg, sim.Options{DisableCrashSampling: true})
	delivered := make(map[topology.NodeID]int)
	r, err := NewRunner(net, RunnerOptions{
		Delta: 1,
		// Node 2 runs 60% slow; node 0 slightly fast.
		ClockSkew: []float64{0.9, 1, 1.6, 1},
	}, func(id topology.NodeID, _ Delivery) { delivered[id]++ })
	if err != nil {
		t.Fatal(err)
	}
	eng := net.Engine()
	r.Start()
	eng.RunUntil(30.5)
	if r.Periods() != 30 {
		t.Fatalf("nominal periods = %d, want 30", r.Periods())
	}
	// The slow node sent fewer heartbeats than the nominal schedule: 30
	// nominal periods at skew 1.6 is 18-19 private periods × 2 neighbors.
	if hb := net.Stats().Sent(sim.KindHeartbeat); hb >= 30*8 {
		t.Fatalf("heartbeats = %d, expected fewer than the nominal 240", hb)
	}
	if _, _, err := r.Proc(2).Broadcast([]byte("from slow node")); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(40.5)
	r.Stop()
	eng.Run()
	for i := 0; i < 4; i++ {
		if delivered[topology.NodeID(i)] == 0 {
			t.Errorf("node %d missed the slow node's broadcast", i)
		}
	}
}

// TestRunnerGrowRunsTheEpochs: a join in the twin goes through the
// protocol the live node runs. On a ring of six at 8 % loss the joiner
// starts at the next epoch and announces itself; the flood, the
// announcement rounds and the stale-epoch repairs bring every member to
// that epoch. A member handed frames from a peer still at the old epoch
// answers the first of each period with one repair (the announcement)
// and the rest with nothing.
func TestRunnerGrowRunsTheEpochs(t *testing.T) {
	r, net := churnRunner(t, 6, 0.08, 4, nil)
	eng := net.Engine()
	r.Start()
	eng.RunUntil(15.5)
	epoch := net.Graph().Epoch() + 1
	id, err := r.Grow([]topology.NodeID{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, nb := range []topology.NodeID{0, 2} {
		if err := net.Config().SetLossBetween(id, nb, 0.08); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(40.5)
	for i := range 7 {
		if got := r.Proc(topology.NodeID(i)).Core().Epoch(); got != epoch {
			t.Errorf("node %d at epoch %d 25 periods after the join, want %d", i, got, epoch)
		}
	}

	stale, err := wire.Encode(&wire.Frame{Kind: wire.FrameData, Data: &wire.DataMsg{
		Origin: 2, Seq: 1 << 20, Root: 2, Body: []byte("stale"), Epoch: epoch - 1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	for period := 41; period <= 43; period++ {
		before := net.Stats().Sent(sim.KindControl)
		for range 3 {
			r.Proc(3).HandleMessage(2, sim.Message{Kind: sim.KindData, Size: len(stale), Payload: stale})
		}
		if got := net.Stats().Sent(sim.KindControl) - before; got != 1 {
			t.Errorf("period %d: three stale frames earned %d repairs, want 1", period, got)
		}
		eng.RunUntil(sim.Time(period) + 0.5)
	}
	r.Stop()
}
