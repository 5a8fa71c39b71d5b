package bayes

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewUniformPrior(t *testing.T) {
	e, err := New(5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if got := e.Belief(i); math.Abs(got-0.2) > 1e-12 {
			t.Errorf("belief[%d] = %v, want 0.2", i, got)
		}
	}
	wantMids := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	for i, want := range wantMids {
		if got := e.Midpoints()[i]; math.Abs(got-want) > 1e-12 {
			t.Errorf("mid[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestNewRejectsTooFewIntervals(t *testing.T) {
	for _, u := range []int{-1, 0, 1} {
		if _, err := New(u); err == nil {
			t.Errorf("New(%d) should fail", u)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew(0) should panic")
		}
	}()
	MustNew(0)
}

// TestTable1 reproduces Table 1 of the paper exactly: with U = 5 and a
// uniform prior, one failure suspicion (decreaseReliability with factor 1)
// must yield beliefs (0.04, 0.12, 0.20, 0.28, 0.36).
func TestTable1(t *testing.T) {
	e := MustNew(5)
	e.ObserveFailure(1)
	want := []float64{0.04, 0.12, 0.20, 0.28, 0.36}
	for i, w := range want {
		if got := e.Belief(i); math.Abs(got-w) > 1e-12 {
			t.Errorf("after suspicion, belief[%d] = %v, want %v", i, got, w)
		}
	}
	if s := e.BeliefSum(); math.Abs(s-1) > 1e-12 {
		t.Errorf("belief sum = %v, want 1", s)
	}
}

func TestSuccessShiftsTowardReliable(t *testing.T) {
	e := MustNew(10)
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
	e := MustNew(10)
	before := e.Mean()
	e.ObserveFailure(5)
	if e.Mean() <= before {
		t.Errorf("mean did not rise after failures: %v -> %v", before, e.Mean())
	}
	mapIdx, _ := e.MAP()
	if mapIdx != 9 {
		t.Errorf("MAP after only failures = %d, want 9", mapIdx)
	}
}

func TestNonPositiveFactorIsNoOp(t *testing.T) {
	e := MustNew(5)
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
		e := MustNew(DefaultIntervals)
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
	e := MustNew(5)
	cases := []struct {
		p    float64
		want int
	}{
		{-0.5, 0}, {0, 0}, {0.1, 0}, {0.19, 0},
		{0.2, 1}, {0.55, 2}, {0.99, 4}, {1, 4}, {1.5, 4},
	}
	for _, c := range cases {
		if got := e.IntervalOf(c.p); got != c.want {
			t.Errorf("IntervalOf(%v) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestIntervalBounds(t *testing.T) {
	e := MustNew(5)
	lo, hi := e.IntervalBounds(2)
	if math.Abs(lo-0.4) > 1e-12 || math.Abs(hi-0.6) > 1e-12 {
		t.Errorf("bounds(2) = [%v,%v), want [0.4,0.6)", lo, hi)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	e := MustNew(5)
	c := e.Clone()
	c.ObserveFailure(3)
	if math.Abs(e.Belief(0)-0.2) > 1e-12 {
		t.Error("mutating clone leaked into original")
	}
	if c.Belief(0) == e.Belief(0) {
		t.Error("clone did not change")
	}
}

func TestExtremeBeliefsDoNotNaN(t *testing.T) {
	e := MustNew(DefaultIntervals)
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
		e := MustNew(20)
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
		e := MustNew(10)
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

// TestUniformGridCacheBounded pins the satellite fix: the uniform-grid
// memo table is a bounded LRU, so a peer cycling through distinct huge
// interval counts cannot grow it without limit, and a hot size stays
// cached across the churn.
func TestUniformGridCacheBounded(t *testing.T) {
	hot := uniformGrid(DefaultIntervals)
	for u := 1000; u < 1000+4*maxCachedGrids; u++ {
		_ = uniformGrid(u)
		// Keep the hot grid recently used, like a live cluster would.
		if uniformGrid(DefaultIntervals) != hot {
			t.Fatal("hot grid evicted while in constant use")
		}
	}
	if got := cachedGrids(); got > maxCachedGrids {
		t.Errorf("grid cache grew to %d entries, bound is %d", got, maxCachedGrids)
	}
	// An evicted size still works — it just re-derives the grid.
	e := MustNew(1000)
	if e.Intervals() != 1000 {
		t.Errorf("evicted-size estimator has %d intervals, want 1000", e.Intervals())
	}
}
