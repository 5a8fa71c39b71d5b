package gossip

import (
	"math/rand"
	"testing"
	"testing/quick"

	"adaptivecast/internal/config"
	"adaptivecast/internal/topology"
)

func TestRunReliableNetwork(t *testing.T) {
	g, err := topology.Ring(10)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.New(g) // perfectly reliable
	res, err := Run(cfg, 0, rand.New(rand.NewSource(1)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached != 10 {
		t.Errorf("reached = %d, want 10", res.Reached)
	}
	if res.DataMessages == 0 || res.Rounds == 0 {
		t.Errorf("degenerate run: %+v", res)
	}
	// On a reliable ring the flood needs about diameter rounds.
	if res.Rounds > 10 {
		t.Errorf("rounds = %d, want <= 10 on a reliable ring of 10", res.Rounds)
	}
}

func TestRunLossyNetworkStillReachesAll(t *testing.T) {
	g, err := topology.RandomConnected(30, 4, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := config.Uniform(g, 0.02, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		res, err := Run(cfg, 0, rng, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Reached != 30 {
			t.Errorf("trial %d: reached %d/30 at quiescence", trial, res.Reached)
		}
	}
}

func TestRunRootOutOfRange(t *testing.T) {
	g, err := topology.Ring(5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.New(g)
	if _, err := Run(cfg, 9, rand.New(rand.NewSource(1)), Options{}); err == nil {
		t.Error("expected range error")
	}
}

func TestAcksReduceTraffic(t *testing.T) {
	g, err := topology.Complete(12)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := config.Uniform(g, 0, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	with, err := MeanCost(cfg, 0, rand.New(rand.NewSource(4)), 20, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Same step budget as the acked runs used on average, no acks.
	budget := int(with.Rounds + 0.5)
	if budget < 1 {
		budget = 1
	}
	without, err := MeanCost(cfg, 0, rand.New(rand.NewSource(4)), 20,
		Options{DisableAcks: true, FixedRounds: budget})
	if err != nil {
		t.Fatal(err)
	}
	if with.DataMessages >= without.DataMessages {
		t.Errorf("acks should cut data traffic: with=%v without=%v",
			with.DataMessages, without.DataMessages)
	}
	if with.AckMessages == 0 {
		t.Error("ack counter not populated")
	}
	if without.AckMessages != 0 {
		t.Error("acks sent despite DisableAcks")
	}
}

func TestMeanCost(t *testing.T) {
	g, err := topology.Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := config.Uniform(g, 0, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	m, err := MeanCost(cfg, 0, rand.New(rand.NewSource(5)), 25, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.ReachedAll != 1 {
		t.Errorf("ReachedAll = %v, want 1 (quiescence implies full reach)", m.ReachedAll)
	}
	if m.DataMessages <= 0 {
		t.Errorf("mean data = %v", m.DataMessages)
	}
	if _, err := MeanCost(cfg, 0, rand.New(rand.NewSource(5)), 0, Options{}); err == nil {
		t.Error("runs=0 should fail")
	}
}

func TestHigherLossMoreMessages(t *testing.T) {
	g, err := topology.RandomConnected(40, 6, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	lo, err := config.Uniform(g, 0, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := config.Uniform(g, 0, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	mLo, err := MeanCost(lo, 0, rand.New(rand.NewSource(7)), 15, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mHi, err := MeanCost(hi, 0, rand.New(rand.NewSource(7)), 15, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if mHi.DataMessages <= mLo.DataMessages {
		t.Errorf("loss 0.2 cost %v should exceed loss 0.01 cost %v",
			mHi.DataMessages, mLo.DataMessages)
	}
}

// Property: quiescence always implies full reach, and data messages are at
// least the flood lower bound (every process other than the root must
// receive at least one message, and senders pay per transmission).
func TestQuiescenceImpliesReachProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(25)
		kMax := n - 2
		if kMax > 6 {
			kMax = 6
		}
		g, err := topology.RandomConnected(n, 2+rng.Intn(kMax), rng)
		if err != nil {
			return false
		}
		cfg, err := config.Uniform(g, rng.Float64()*0.05, rng.Float64()*0.1)
		if err != nil {
			return false
		}
		res, err := Run(cfg, topology.NodeID(rng.Intn(n)), rng, Options{})
		if err != nil {
			return false
		}
		return res.Reached == n && res.DataMessages >= n-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDisableAcksRequiresFixedRounds(t *testing.T) {
	g, err := topology.Ring(5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.New(g)
	if _, err := Run(cfg, 0, rand.New(rand.NewSource(1)), Options{DisableAcks: true}); err == nil {
		t.Error("DisableAcks without FixedRounds should fail")
	}
}
