package bayes

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewUniformPrior(t *testing.T) {
	e := New()
	for i := 0; i < Intervals; i++ {
		if got := e.Belief(i); math.Abs(got-0.01) > 1e-12 {
			t.Errorf("belief[%d] = %v, want 0.01", i, got)
		}
	}
	for i, got := range e.Midpoints() {
		if want := float64(2*i+1) / 200; math.Abs(got-want) > 1e-12 {
			t.Errorf("mid[%d] = %v, want %v", i, got, want)
		}
	}
}

// TestTable1 reproduces Table 1 of the paper exactly: with U = 5 and a
// uniform prior, one failure suspicion (decreaseReliability with factor 1)
// must yield beliefs (0.04, 0.12, 0.20, 0.28, 0.36). U = 5 is not the
// estimator's precision, so the literal Algorithm 5 oracle runs it; at
// U = 100 the estimator must agree with the same oracle.
func TestTable1(t *testing.T) {
	v := newVectorEstimator(newTestGrid(5))
	v.observe(v.g.logFail, 1)
	bel, _ := v.beliefs()
	var sum float64
	for i, w := range []float64{0.04, 0.12, 0.20, 0.28, 0.36} {
		if math.Abs(bel[i]-w) > 1e-12 {
			t.Errorf("after suspicion, belief[%d] = %v, want %v", i, bel[i], w)
		}
		sum += bel[i]
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("belief sum = %v, want 1", sum)
	}
	e, v := New(), newVectorEstimator(packageGrid())
	e.ObserveFailure(1)
	v.observe(v.g.logFail, 1)
	want, _ := v.beliefs()
	for i, w := range want {
		if got := e.Belief(i); math.Abs(got-w) > 1e-12 {
			t.Errorf("U = 100, after suspicion: belief[%d] = %v, oracle %v", i, got, w)
		}
	}
	if s := e.BeliefSum(); math.Abs(s-1) > 1e-12 {
		t.Errorf("belief sum = %v, want 1", s)
	}
}

func TestSuccessShiftsTowardReliable(t *testing.T) {
	e := New()
	before := e.Mean()
	e.ObserveSuccess(5)
	if e.Mean() >= before {
		t.Errorf("mean did not drop after successes: %v -> %v", before, e.Mean())
	}
	mapIdx, _ := e.MAP()
	if mapIdx != 0 {
		t.Errorf("MAP after only successes = %d, want 0", mapIdx)
	}
}

func TestFailureShiftsTowardLossy(t *testing.T) {
	e := New()
	before := e.Mean()
	e.ObserveFailure(5)
	if e.Mean() <= before {
		t.Errorf("mean did not rise after failures: %v -> %v", before, e.Mean())
	}
	mapIdx, _ := e.MAP()
	if mapIdx != Intervals-1 {
		t.Errorf("MAP after only failures = %d, want %d", mapIdx, Intervals-1)
	}
}

func TestNonPositiveFactorIsNoOp(t *testing.T) {
	e := New()
	want := e.Beliefs()
	e.ObserveFailure(0)
	e.ObserveFailure(-3)
	e.ObserveSuccess(0)
	e.ObserveSuccess(-1)
	for i, b := range e.Beliefs() {
		if b != want[i] {
			t.Fatalf("beliefs changed on non-positive factor: %v", e.Beliefs())
		}
	}
}

// TestConvergesToTruth simulates the estimator against Bernoulli evidence
// with a known failure probability and checks the posterior locks onto the
// right interval — the mechanism behind the paper's convergence results.
func TestConvergesToTruth(t *testing.T) {
	for _, truth := range []float64{0.0, 0.01, 0.05, 0.5, 0.93} {
		e := New()
		// Deterministic evidence stream with exact failure proportion.
		const nObs = 4000
		failures := int(truth * nObs)
		e.ObserveFailure(failures)
		e.ObserveSuccess(nObs - failures)
		if !e.Converged(truth, 1, 0.3) {
			mapIdx, b := e.MAP()
			t.Errorf("truth=%v: MAP interval %d (belief %v), mean %v — not converged",
				truth, mapIdx, b, e.Mean())
		}
		if d := math.Abs(e.Mean() - truth); d > 0.02 {
			t.Errorf("truth=%v: mean %v off by %v", truth, e.Mean(), d)
		}
	}
}

func TestIntervalOf(t *testing.T) {
	e := New()
	cases := []struct {
		p    float64
		want int
	}{
		{-0.5, 0}, {0, 0}, {0.005, 0}, {0.0099, 0},
		{0.0101, 1}, {0.555, 55}, {0.999, 99}, {1, 99}, {1.5, 99},
	}
	for _, c := range cases {
		if got := e.IntervalOf(c.p); got != c.want {
			t.Errorf("IntervalOf(%v) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestIntervalBounds(t *testing.T) {
	e := New()
	lo, hi := e.IntervalBounds(40)
	if math.Abs(lo-0.4) > 1e-12 || math.Abs(hi-0.41) > 1e-12 {
		t.Errorf("bounds(40) = [%v,%v), want [0.4,0.41)", lo, hi)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	e := New()
	c := e.Clone()
	c.ObserveFailure(3)
	if math.Abs(e.Belief(0)-0.01) > 1e-12 {
		t.Error("mutating clone leaked into original")
	}
	if c.Belief(0) == e.Belief(0) {
		t.Error("clone did not change")
	}
}

func TestExtremeBeliefsDoNotNaN(t *testing.T) {
	e := New()
	e.ObserveFailure(100000)
	e.ObserveSuccess(100000)
	if math.IsNaN(e.Mean()) {
		t.Fatal("mean is NaN after extreme evidence")
	}
	if s := e.BeliefSum(); math.Abs(s-1) > 1e-6 {
		t.Fatalf("belief sum drifted to %v", s)
	}
}

// Property: Σ beliefs = 1 after any sequence of updates (the paper's
// invariant of Algorithm 4), and every belief stays within [0,1].
func TestInvariantSumOne(t *testing.T) {
	f := func(ops []bool, factors []uint8) bool {
		e := New()
		for i, fail := range ops {
			factor := 1
			if i < len(factors) {
				factor = int(factors[i]%5) + 1
			}
			if fail {
				e.ObserveFailure(factor)
			} else {
				e.ObserveSuccess(factor)
			}
		}
		if math.Abs(e.BeliefSum()-1) > 1e-9 {
			return false
		}
		for _, b := range e.Beliefs() {
			if b < 0 || b > 1 || math.IsNaN(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: a failure observation never decreases the posterior mean and a
// success observation never increases it (monotonicity of Bayes updates
// under monotone likelihood ratio).
func TestMonotonicityProperty(t *testing.T) {
	f := func(ops []bool) bool {
		e := New()
		for _, fail := range ops {
			before := e.Mean()
			if fail {
				e.ObserveFailure(1)
				if e.Mean() < before-1e-12 {
					return false
				}
			} else {
				e.ObserveSuccess(1)
				if e.Mean() > before+1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestGridFloorsTheMean pins the floor the U = 100 grid puts under every
// estimate: with succ = s and fail = 0, the posterior mean falls toward
// the lowest midpoint, 1/(2U) = 0.005, and never below it. It reads
// ≈ 0.00518 at s = 400, and from s = 1,000 on it is 0.00500, within
// 5·10⁻⁷ of the floor, where the continuous Beta(1, s+1) posterior's mean, 1/(s+2), keeps
// falling: 0.00249 at 400, 0.00042 at 2,400. A healthy process's crash
// estimate (Event 3 books a success per period) sits on this floor after
// about 400 periods, and so does a clean link's loss estimate; a tree
// edge's λ carries three such terms. The floor is the margin Eq. 1 rests
// on in practice: docs/ARCHITECTURE.md, "The grid's floor".
func TestGridFloorsTheMean(t *testing.T) {
	floor := grid.mid[0]
	if floor != 0.005 {
		t.Fatalf("lowest midpoint %v, want 1/(2U) = 0.005", floor)
	}
	mean := func(s int) float64 {
		e, err := NewFromState(State{Succ: s})
		if err != nil {
			t.Fatal(err)
		}
		return e.Mean()
	}
	if m := mean(400); math.Abs(m-0.00518) > 5e-6 {
		t.Errorf("mean at s = 400 is %.6f, want ≈ 0.00518", m)
	}
	prev := mean(0)
	for s := 1; s <= 3000; s++ {
		m := mean(s)
		if m > prev || m < floor {
			t.Fatalf("mean at s = %d is %.10f after %.10f: want non-increasing and at least %v", s, m, prev, floor)
		}
		if s >= 1000 && m-floor > 5e-7 {
			t.Fatalf("mean at s = %d is %.7f, want within 5e-7 of the floor", s, m)
		}
		prev = m
	}
	for _, s := range []int{1e4, 1e6, MaxEvidence} {
		if m := mean(s); m < floor || m-floor > 5e-7 {
			t.Errorf("mean at s = %d is %.10f, want within 5e-7 of %v and never below it", s, m, floor)
		}
	}
	for s, want := range map[int]float64{400: 0.00249, 2400: 0.00042} {
		if beta := 1 / float64(s+2); math.Abs(beta-want) > 5e-6 || mean(s) < 2*beta {
			t.Errorf("s = %d: Beta(1, s+1) mean %.5f, grid mean %.5f; want ≈ %v and the grid at least twice it", s, beta, mean(s), want)
		}
	}
}
