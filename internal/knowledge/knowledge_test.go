package knowledge

import (
	"math"
	"math/rand"
	"testing"

	"adaptivecast/internal/bayes"
	"adaptivecast/internal/config"
	"adaptivecast/internal/topology"
)

func newPair(t *testing.T) (*View, *View) {
	t.Helper()
	in := NewInterner()
	a, err := NewView(0, 2, []topology.NodeID{1}, in, Params{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewView(1, 2, []topology.NodeID{0}, in, Params{})
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

func TestNewViewInitialState(t *testing.T) {
	in := NewInterner()
	v, err := NewView(1, 4, []topology.NodeID{0, 2}, in, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if _, d := v.CrashEstimate(1); d != 0 {
		t.Errorf("self distortion = %d, want 0", d)
	}
	for _, other := range []topology.NodeID{0, 2, 3} {
		if _, d := v.CrashEstimate(other); d != DistInf {
			t.Errorf("distortion of %d = %d, want DistInf", other, d)
		}
	}
	for _, nb := range []topology.NodeID{0, 2} {
		if _, d, ok := v.LossEstimate(topology.NewLink(1, nb)); !ok || d != 0 {
			t.Errorf("link to %d: ok=%v dist=%d, want known at 0", nb, ok, d)
		}
	}
	if _, _, ok := v.LossEstimate(topology.NewLink(0, 2)); ok {
		t.Error("remote link should be unknown initially")
	}
	if !v.IsNeighbor(0) || !v.IsNeighbor(2) || v.IsNeighbor(3) {
		t.Error("neighbor set wrong")
	}
	if got := len(v.KnownLinks()); got != 2 {
		t.Errorf("known links = %d, want 2", got)
	}
}

func TestNewViewErrors(t *testing.T) {
	if _, err := NewView(5, 3, nil, nil, Params{}); err == nil {
		t.Error("out-of-range self should fail")
	}
	if _, err := NewView(0, 3, []topology.NodeID{0}, nil, Params{}); err == nil {
		t.Error("self neighbor should fail")
	}
	if _, err := NewView(0, 3, []topology.NodeID{7}, nil, Params{}); err == nil {
		t.Error("out-of-range neighbor should fail")
	}
}

func TestBeginPeriodSelfEvidence(t *testing.T) {
	v, err := NewView(0, 2, []topology.NodeID{1}, nil, Params{})
	if err != nil {
		t.Fatal(err)
	}
	before, _ := v.CrashEstimate(0)
	for i := 0; i < 50; i++ {
		v.BeginPeriod()
	}
	after, _ := v.CrashEstimate(0)
	if after >= before {
		t.Errorf("self crash estimate did not improve: %v -> %v", before, after)
	}
	if v.SelfSeq() != 50 {
		t.Errorf("seq = %d, want 50", v.SelfSeq())
	}
}

func TestOnRecoverDecreasesSelfReliability(t *testing.T) {
	v, err := NewView(0, 2, []topology.NodeID{1}, nil, Params{})
	if err != nil {
		t.Fatal(err)
	}
	before, _ := v.CrashEstimate(0)
	v.OnRecover(10)
	after, _ := v.CrashEstimate(0)
	if after <= before {
		t.Errorf("self crash estimate did not worsen after crash: %v -> %v", before, after)
	}
}

func TestMergeAdoptsSelfEstimates(t *testing.T) {
	a, b := newPair(t)
	// B survives many ticks: its self estimate improves.
	for i := 0; i < 100; i++ {
		b.BeginPeriod()
	}
	if err := a.MergeSnapshot(b.Snapshot()); err != nil {
		t.Fatal(err)
	}
	mean, dist := a.CrashEstimate(1)
	if dist != 1 {
		t.Errorf("adopted distortion = %d, want 1 (0 bumped)", dist)
	}
	bMean, _ := b.CrashEstimate(1)
	if math.Abs(mean-bMean) > 1e-12 {
		t.Errorf("adopted mean %v != source mean %v", mean, bMean)
	}
}

func TestTopologyPropagation(t *testing.T) {
	// Line 0-1-2: node 0 learns about link 1-2 through node 1.
	in := NewInterner()
	v0, err := NewView(0, 3, []topology.NodeID{1}, in, Params{})
	if err != nil {
		t.Fatal(err)
	}
	v1, err := NewView(1, 3, []topology.NodeID{0, 2}, in, Params{})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := NewView(2, 3, []topology.NodeID{1}, in, Params{})
	if err != nil {
		t.Fatal(err)
	}

	v2.BeginPeriod()
	if err := v1.MergeSnapshot(v2.Snapshot()); err != nil {
		t.Fatal(err)
	}
	v1.BeginPeriod()
	if err := v0.MergeSnapshot(v1.Snapshot()); err != nil {
		t.Fatal(err)
	}

	// v0 now knows the remote link 1-2 with distortion 1 (v1 measured it
	// at 0) and process 2 with distortion 2 (two hops from its origin).
	if _, d, ok := v0.LossEstimate(topology.NewLink(1, 2)); !ok || d != 1 {
		t.Errorf("remote link: ok=%v dist=%d, want known at 1", ok, d)
	}
	if _, d := v0.CrashEstimate(2); d != 2 {
		t.Errorf("remote process distortion = %d, want 2", d)
	}
	if len(v0.KnownLinks()) != 2 {
		t.Errorf("v0 knows %d links, want 2", len(v0.KnownLinks()))
	}
}

func TestLowerDistortionWins(t *testing.T) {
	// v0 has a second-hand estimate of process 2; merging from a view
	// with a *worse* (higher-distortion) estimate must not overwrite it.
	in := NewInterner()
	v0, err := NewView(0, 3, []topology.NodeID{1}, in, Params{})
	if err != nil {
		t.Fatal(err)
	}
	v1, err := NewView(1, 3, []topology.NodeID{0, 2}, in, Params{})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := NewView(2, 3, []topology.NodeID{1}, in, Params{})
	if err != nil {
		t.Fatal(err)
	}
	v2.BeginPeriod()
	if err := v1.MergeSnapshot(v2.Snapshot()); err != nil {
		t.Fatal(err)
	}
	v1.BeginPeriod()
	if err := v0.MergeSnapshot(v1.Snapshot()); err != nil {
		t.Fatal(err)
	}
	_, d0 := v0.CrashEstimate(2) // dist 2

	// Build a chain that makes v1's copy more distorted than v0's before
	// merging again: age v1's estimate of 2 via many silent periods.
	for i := 0; i < 5; i++ {
		v1.BeginPeriod()
	}
	_, d1 := v1.CrashEstimate(2)
	if d1+1 <= d0 {
		t.Skipf("aging did not exceed v0's distortion (d1=%d d0=%d)", d1, d0)
	}
	if err := v0.MergeSnapshot(v1.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if _, d := v0.CrashEstimate(2); d != d0 {
		t.Errorf("worse estimate overwrote better: dist %d -> %d", d0, d)
	}
}

func TestSequenceGapBooksLinkLosses(t *testing.T) {
	a, b := newPair(t)
	link := topology.NewLink(0, 1)

	// Establish first contact (no loss evidence on first heartbeat).
	b.BeginPeriod()
	if err := a.MergeSnapshot(b.Snapshot()); err != nil {
		t.Fatal(err)
	}
	before, _, _ := a.LossEstimate(link)

	// B sends 3 heartbeats that are "lost" (A never merges), then one
	// arrives: A must detect 3 missed sequence numbers.
	for i := 0; i < 3; i++ {
		b.BeginPeriod()
	}
	b.BeginPeriod()
	if err := a.MergeSnapshot(b.Snapshot()); err != nil {
		t.Fatal(err)
	}
	after, _, _ := a.LossEstimate(link)
	if after <= before {
		t.Errorf("loss estimate did not rise after gap: %v -> %v", before, after)
	}
}

func TestSenderRestartDoesNotPoisonLink(t *testing.T) {
	a, b := newPair(t)
	for i := 0; i < 10; i++ {
		b.BeginPeriod()
	}
	if err := a.MergeSnapshot(b.Snapshot()); err != nil {
		t.Fatal(err)
	}
	before, _, _ := a.LossEstimate(topology.NewLink(0, 1))

	// B "crashes" and restarts its sequencer.
	b2, err := NewView(1, 2, []topology.NodeID{0}, a.Interner(), Params{})
	if err != nil {
		t.Fatal(err)
	}
	b2.BeginPeriod() // seq restarts at 1 < 11
	if err := a.MergeSnapshot(b2.Snapshot()); err != nil {
		t.Fatal(err)
	}
	after, _, _ := a.LossEstimate(topology.NewLink(0, 1))
	if after > before {
		t.Errorf("sequencer restart booked phantom losses: %v -> %v", before, after)
	}
}

func TestSilentNeighborSuspected(t *testing.T) {
	a, b := newPair(t)
	b.BeginPeriod()
	if err := a.MergeSnapshot(b.Snapshot()); err != nil {
		t.Fatal(err)
	}
	crashBefore, distBefore := a.CrashEstimate(1)
	linkBefore, _, _ := a.LossEstimate(topology.NewLink(0, 1))

	// Neighbor goes silent for many periods.
	for i := 0; i < 20; i++ {
		a.BeginPeriod()
	}
	crashAfter, distAfter := a.CrashEstimate(1)
	linkAfter, _, _ := a.LossEstimate(topology.NewLink(0, 1))
	if crashAfter <= crashBefore {
		t.Errorf("silent neighbor's crash estimate did not worsen: %v -> %v", crashBefore, crashAfter)
	}
	if distAfter <= distBefore {
		t.Errorf("distortion did not age: %d -> %d", distBefore, distAfter)
	}
	if math.Abs(linkAfter-linkBefore) > 1e-9 {
		t.Errorf("link estimate moved on pure silence: %v -> %v (must stay unbiased)", linkBefore, linkAfter)
	}
}

// TestTwoNodeLossConvergence runs the full heartbeat loop between two
// nodes over a lossy link and checks both converge to the true loss rate —
// the elementary case of Figure 5(b).
func TestTwoNodeLossConvergence(t *testing.T) {
	const trueLoss = 0.1
	rng := rand.New(rand.NewSource(11))
	a, b := newPair(t)
	views := []*View{a, b}
	for period := 0; period < 2000; period++ {
		for _, v := range views {
			v.BeginPeriod()
		}
		// a -> b and b -> a heartbeats, each independently lossy.
		if rng.Float64() >= trueLoss {
			if err := b.MergeSnapshot(a.Snapshot()); err != nil {
				t.Fatal(err)
			}
		}
		if rng.Float64() >= trueLoss {
			if err := a.MergeSnapshot(b.Snapshot()); err != nil {
				t.Fatal(err)
			}
		}
	}
	link := topology.NewLink(0, 1)
	for i, v := range views {
		got, _, ok := v.LossEstimate(link)
		if !ok {
			t.Fatalf("view %d lost its link", i)
		}
		if math.Abs(got-trueLoss) > 0.03 {
			t.Errorf("view %d loss estimate = %v, want ≈%v", i, got, trueLoss)
		}
		if !v.LinkEstimator(link).Converged(trueLoss, 1, 0.3) {
			t.Errorf("view %d link estimator not converged", i)
		}
	}
}

// TestCrashRateConvergence drives a node's own up/down accounting and
// checks its self-estimate converges to the per-period crash probability —
// then checks the estimate propagates to a neighbor unchanged.
func TestCrashRateConvergence(t *testing.T) {
	const trueCrash = 0.05
	rng := rand.New(rand.NewSource(13))
	a, b := newPair(t)
	for period := 0; period < 3000; period++ {
		if rng.Float64() < trueCrash {
			b.OnRecover(1) // crashed for this period: Event 4
		} else {
			b.BeginPeriod() // survived: Event 3 (and Event 2 aging)
			if err := a.MergeSnapshot(b.Snapshot()); err != nil {
				t.Fatal(err)
			}
		}
		a.BeginPeriod()
	}
	selfMean, _ := b.CrashEstimate(1)
	if math.Abs(selfMean-trueCrash) > 0.02 {
		t.Errorf("self crash estimate = %v, want ≈%v", selfMean, trueCrash)
	}
	adopted, dist := a.CrashEstimate(1)
	if dist != 1 {
		t.Errorf("neighbor's estimate distortion = %d, want 1", dist)
	}
	if math.Abs(adopted-selfMean) > 1e-9 {
		t.Errorf("neighbor's copy %v diverged from source %v", adopted, selfMean)
	}
}

func TestEstimatedConfig(t *testing.T) {
	in := NewInterner()
	v0, err := NewView(0, 3, []topology.NodeID{1}, in, Params{})
	if err != nil {
		t.Fatal(err)
	}
	v1, err := NewView(1, 3, []topology.NodeID{0, 2}, in, Params{})
	if err != nil {
		t.Fatal(err)
	}
	v1.BeginPeriod()
	if err := v0.MergeSnapshot(v1.Snapshot()); err != nil {
		t.Fatal(err)
	}
	g, c, err := v0.EstimatedConfig()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 {
		t.Errorf("nodes = %d, want 3", g.NumNodes())
	}
	if !g.HasLink(0, 1) || !g.HasLink(1, 2) {
		t.Error("estimated graph missing known links")
	}
	// Process 2 was never heard of: prior mean 0.5 steers the MRT away.
	if got := c.Crash(2); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("unknown process crash = %v, want 0.5", got)
	}
	if got := c.Crash(1); got >= 0.5 {
		t.Errorf("known process crash = %v, want < 0.5 after an up-tick", got)
	}
}

func TestSnapshotMergeEquivalence(t *testing.T) {
	// Two receivers with identical state merge the same sender knowledge,
	// one in views sharing an interner (the discrete-event twin) and one
	// in views each owning theirs (the live node); results must agree.
	mk := func(shared bool) (*View, *View, *View) {
		in := NewInterner()
		interner := func() *Interner {
			if shared {
				return in
			}
			return nil
		}
		recv, err := NewView(0, 3, []topology.NodeID{1}, interner(), Params{})
		if err != nil {
			t.Fatal(err)
		}
		sender, err := NewView(1, 3, []topology.NodeID{0, 2}, interner(), Params{})
		if err != nil {
			t.Fatal(err)
		}
		third, err := NewView(2, 3, []topology.NodeID{1}, interner(), Params{})
		if err != nil {
			t.Fatal(err)
		}
		return recv, sender, third
	}
	prep := func(sender, third *View) {
		for i := 0; i < 7; i++ {
			third.BeginPeriod()
			sender.BeginPeriod()
			if err := sender.MergeSnapshot(third.Snapshot()); err != nil {
				t.Fatal(err)
			}
		}
	}

	r1, s1, t1 := mk(true)
	prep(s1, t1)
	if err := r1.MergeSnapshot(s1.Snapshot()); err != nil {
		t.Fatal(err)
	}

	r2, s2, t2 := mk(false)
	prep(s2, t2)
	if err := r2.MergeSnapshot(s2.Snapshot()); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 3; i++ {
		id := topology.NodeID(i)
		m1, d1 := r1.CrashEstimate(id)
		m2, d2 := r2.CrashEstimate(id)
		if d1 != d2 || math.Abs(m1-m2) > 1e-12 {
			t.Errorf("proc %d: shared interner (%v,%d) != private interners (%v,%d)", i, m1, d1, m2, d2)
		}
	}
	for _, l := range []topology.Link{topology.NewLink(0, 1), topology.NewLink(1, 2)} {
		m1, d1, ok1 := r1.LossEstimate(l)
		m2, d2, ok2 := r2.LossEstimate(l)
		if ok1 != ok2 || d1 != d2 || math.Abs(m1-m2) > 1e-12 {
			t.Errorf("link %v: shared interner (%v,%d,%v) != private interners (%v,%d,%v)",
				l, m1, d1, ok1, m2, d2, ok2)
		}
	}
}

func TestMergeSnapshotValidation(t *testing.T) {
	v, err := NewView(0, 3, []topology.NodeID{1}, nil, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.MergeSnapshot(&Snapshot{From: 9, Seq: 1}); err == nil {
		t.Error("unknown sender should fail")
	}
	if err := v.MergeSnapshot(&Snapshot{From: 0, Seq: 1}); err == nil {
		t.Error("own snapshot should fail")
	}
	if err := v.MergeSnapshot(&Snapshot{
		From:  1,
		Seq:   1,
		Procs: []ProcRecord{{ID: 77}},
	}); err == nil {
		t.Error("unknown process in snapshot should fail")
	}
	if err := v.MergeSnapshot(&Snapshot{
		From:  1,
		Seq:   2,
		Links: []LinkRecord{{Link: topology.Link{A: 5, B: 5}}},
	}); err == nil {
		t.Error("invalid link in snapshot should fail")
	}
}

// TestConvergedToFullLoop runs the complete protocol on a small ring and
// asserts every view converges to the ground truth — the mechanism behind
// Figures 5 and 6 at miniature scale.
func TestConvergedToFullLoop(t *testing.T) {
	const (
		n        = 5
		trueLoss = 0.05
	)
	g, err := topology.Ring(n)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := config.Uniform(g, 0, trueLoss)
	if err != nil {
		t.Fatal(err)
	}

	in := NewInterner()
	// Intern ground-truth links first so indices align with the graph.
	for _, l := range g.Links() {
		in.Intern(l)
	}
	views := make([]*View, n)
	for i := range views {
		v, err := NewView(topology.NodeID(i), n, g.Neighbors(topology.NodeID(i)), in, Params{})
		if err != nil {
			t.Fatal(err)
		}
		views[i] = v
	}

	rng := rand.New(rand.NewSource(17))
	crit := Criterion{Slack: 1, MinBelief: 0.3}
	converged := -1
	for period := 1; period <= 4000; period++ {
		for _, v := range views {
			v.BeginPeriod()
		}
		for i, v := range views {
			for _, nb := range g.Neighbors(topology.NodeID(i)) {
				if rng.Float64() < trueLoss {
					continue
				}
				if err := views[nb].MergeSnapshot(v.Snapshot()); err != nil {
					t.Fatal(err)
				}
			}
		}
		if period%25 == 0 {
			all := true
			for _, v := range views {
				if !v.ConvergedTo(truth, crit) {
					all = false
					break
				}
			}
			if all {
				converged = period
				break
			}
		}
	}
	if converged < 0 {
		t.Fatal("views did not converge within 4000 periods")
	}
	t.Logf("converged after ≈%d periods", converged)
}

func TestBumpSaturates(t *testing.T) {
	if bump(DistInf) != DistInf {
		t.Error("bump(DistInf) must saturate")
	}
	if bump(DistInf-1) != DistInf {
		t.Error("bump(DistInf-1) must saturate")
	}
	if bump(3) != 4 {
		t.Error("bump(3) != 4")
	}
}

func TestInterner(t *testing.T) {
	in := NewInterner()
	l1 := topology.NewLink(0, 1)
	l2 := topology.NewLink(1, 2)
	if in.Intern(l1) != 0 || in.Intern(l2) != 1 || in.Intern(l1) != 0 {
		t.Error("intern indices wrong")
	}
	if in.Lookup(l2) != 1 || in.Lookup(topology.NewLink(0, 2)) != -1 {
		t.Error("lookup wrong")
	}
	if in.Len() != 2 || in.Link(0) != l1 {
		t.Error("table wrong")
	}
}

// TestAdoptionIsSnapshot pins the copy-on-write semantics: an adopted
// estimate is a frozen snapshot — the source's later local updates must
// not teleport into the adopter (information travels only via heartbeats,
// which is what Figure 6's distance effect measures).
func TestAdoptionIsSnapshot(t *testing.T) {
	a, b := newPair(t)
	for i := 0; i < 50; i++ {
		b.BeginPeriod()
	}
	if err := a.MergeSnapshot(b.Snapshot()); err != nil {
		t.Fatal(err)
	}
	adopted, _ := a.CrashEstimate(1)

	// Source's estimate changes drastically afterwards.
	b.OnRecover(500)
	frozen, _ := a.CrashEstimate(1)
	if frozen != adopted {
		t.Fatalf("source update teleported to adopter: %v -> %v", adopted, frozen)
	}

	// And the adopter mutating its copy must not corrupt the source.
	srcBefore, _ := b.CrashEstimate(1)
	for i := 0; i < 30; i++ {
		a.BeginPeriod() // Event 2 suspicions mutate a's copy of p1
	}
	srcAfter, _ := b.CrashEstimate(1)
	if srcBefore != srcAfter {
		t.Fatalf("adopter mutation corrupted source: %v -> %v", srcBefore, srcAfter)
	}
}

// TestRefinedEstimatePropagates keeps the name it had when refined grids
// existed. Its subject is now an estimate a view learned from a snapshot
// record rather than observed itself: it flows on through adoption and
// snapshots like any other knowledge, with its evidence counts intact.
func TestRefinedEstimatePropagates(t *testing.T) {
	in := NewInterner()
	params := Params{Intervals: 20}
	a, err := NewView(0, 3, []topology.NodeID{1}, in, params)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewView(1, 3, []topology.NodeID{0}, in, params)
	if err != nil {
		t.Fatal(err)
	}
	// a adopts process 2's estimate from a snapshot record.
	src := bayes.MustNew(20)
	src.ObserveFailure(4)
	src.ObserveSuccess(60)
	if err := a.MergeSnapshotKnowledgeOnly(&Snapshot{From: 1, Seq: 1,
		Procs: []ProcRecord{{ID: 2, Dist: 0, Est: bayes.State{Intervals: 20, Succ: 60, Fail: 4}}}}); err != nil {
		t.Fatal(err)
	}
	srcMean, _ := a.CrashEstimate(2)
	if srcMean != src.Mean() {
		t.Fatalf("adopted estimate %v, its source %v", srcMean, src.Mean())
	}
	// b adopts it via the live path...
	if err := b.MergeSnapshot(a.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if mean, _ := b.CrashEstimate(2); mean != srcMean {
		t.Errorf("adopted estimate diverged: %v vs %v", mean, srcMean)
	}
	// ...and via the snapshot path.
	c, err := NewView(1, 3, []topology.NodeID{0}, NewInterner(), params)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MergeSnapshot(a.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if mean, _ := c.CrashEstimate(2); mean != srcMean {
		t.Errorf("snapshot path diverged: %v vs %v", mean, srcMean)
	}
	for name, v := range map[string]*View{"live path": b, "snapshot path": c} {
		if got := v.ProcEstimator(2).Observations(); got != src.Observations() {
			t.Errorf("%s: %d observations arrived, want %d", name, got, src.Observations())
		}
	}
}

// TestDistortionMatchesDistance is the structural property behind
// Figure 6: after steady propagation along a line, each process holds
// every other process's estimate at distortion equal to their hop
// distance (the "minimal value of C_k[p_i].d is given by the network
// distance" claim of Section 4.2).
func TestDistortionMatchesDistance(t *testing.T) {
	const n = 7
	in := NewInterner()
	views := make([]*View, n)
	for i := range views {
		var nbs []topology.NodeID
		if i > 0 {
			nbs = append(nbs, topology.NodeID(i-1))
		}
		if i < n-1 {
			nbs = append(nbs, topology.NodeID(i+1))
		}
		v, err := NewView(topology.NodeID(i), n, nbs, in, Params{})
		if err != nil {
			t.Fatal(err)
		}
		views[i] = v
	}
	// Lossless heartbeat rounds; enough for knowledge to cross the line.
	for period := 0; period < 2*n; period++ {
		for _, v := range views {
			v.BeginPeriod()
		}
		for i, v := range views {
			if i > 0 {
				if err := views[i-1].MergeSnapshot(v.Snapshot()); err != nil {
					t.Fatal(err)
				}
			}
			if i < n-1 {
				if err := views[i+1].MergeSnapshot(v.Snapshot()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for i, v := range views {
		for j := 0; j < n; j++ {
			want := i - j
			if want < 0 {
				want = -want
			}
			if _, d := v.CrashEstimate(topology.NodeID(j)); d != want {
				t.Errorf("view %d: distortion of %d = %d, want hop distance %d", i, j, d, want)
			}
		}
	}
}

// TestVersionAdvancesOnMutation pins the contract the node's plan cache
// depends on: Version moves exactly when the view's estimates change.
func TestVersionAdvancesOnMutation(t *testing.T) {
	a, b := newPair(t)
	if a.Version() != 0 {
		t.Fatalf("fresh view version = %d, want 0", a.Version())
	}

	v0 := a.Version()
	a.BeginPeriod()
	if a.Version() <= v0 {
		t.Error("BeginPeriod must advance the version")
	}

	v1 := a.Version()
	a.OnRecover(3)
	if a.Version() <= v1 {
		t.Error("OnRecover must advance the version")
	}

	// A heartbeat merge always books link evidence, so it always bumps.
	b.BeginPeriod()
	v2 := a.Version()
	if err := a.MergeSnapshot(b.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if a.Version() <= v2 {
		t.Error("MergeSnapshot must advance the version")
	}

	// Snapshot paths: a snapshot carrying news bumps; one carrying no
	// records adopts nothing and must leave the version alone.
	snap := b.Snapshot()
	v3 := a.Version()
	if err := a.MergeSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if a.Version() <= v3 {
		t.Error("MergeSnapshot must advance the version")
	}
	v4 := a.Version()
	if err := a.MergeSnapshotKnowledgeOnly(&Snapshot{From: 1, Seq: snap.Seq}); err != nil {
		t.Fatal(err)
	}
	if a.Version() != v4 {
		t.Errorf("no-news knowledge-only merge moved version %d -> %d", v4, a.Version())
	}

	// A snapshot with genuinely better (less distorted) estimates bumps
	// the knowledge-only path too.
	b.BeginPeriod()
	v5 := a.Version()
	if err := a.MergeSnapshotKnowledgeOnly(b.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if a.Version() <= v5 {
		t.Error("knowledge-only merge with news must advance the version")
	}

	// Reads do not bump.
	v6 := a.Version()
	a.CrashEstimate(1)
	a.KnownLinks()
	if _, _, err := a.EstimatedConfig(); err != nil {
		t.Fatal(err)
	}
	if a.Version() != v6 {
		t.Error("reads must not advance the version")
	}
}
