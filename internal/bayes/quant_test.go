package bayes

import (
	"math"
	"math/rand"
	"testing"
)

// The five tests below keep the names they had when the wire's compact
// profile was the v4 quantized encoding. The compact profile today is the
// count layout: a state described by (Succ, Fail) alone, which a
// heartbeat ships as two integers. They pin that layout and its bounds.

// TestBeliefQuantScale: what a count state holds. An estimator's state
// is (successes, failures), exactly what it observed, and so is its
// clone's.
func TestBeliefQuantScale(t *testing.T) {
	e := New()
	e.ObserveFailure(4)
	e.ObserveSuccess(96)
	for name, s := range map[string]State{"estimator": e.State(), "clone": e.Clone().State()} {
		if s.Succ != 96 || s.Fail != 4 {
			t.Errorf("%s cut %+v, want the count state (96, 4)", name, s)
		}
	}
}

// TestQuantizeBeliefBounds: the bounds Adopt puts on a count state.
// Negative counts and evidence past MaxEvidence are refused and leave the estimator as it was; counts
// at the bounds still summarize to a finite mean inside (0, 1).
func TestQuantizeBeliefBounds(t *testing.T) {
	e := New()
	e.ObserveSuccess(30)
	mean := e.Mean()
	for name, s := range map[string]State{
		"negative success":    {Succ: -1},
		"negative failure":    {Fail: -1},
		"evidence past bound": {Succ: MaxEvidence - 1, Fail: 2},
	} {
		if err := e.Adopt(s); err == nil {
			t.Errorf("%s: Adopt accepted %+v", name, s)
		}
		if e.Mean() != mean || e.Observations() != 30 {
			t.Fatalf("%s: a refused state moved the estimate", name)
		}
	}
	for _, s := range []State{
		{Succ: MaxEvidence - 1, Fail: 1},
		{Fail: MaxEvidence},
	} {
		got, err := NewFromState(s)
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		if m := got.Mean(); !(m > 0 && m < 1) {
			t.Errorf("%+v summarizes to mean %v", s, m)
		}
	}
}

// TestBeliefQuantStepBound: the count layout is exact, so there is no
// step to bound. Over random schedules an estimator rebuilt from the two
// integers alone has the bit-identical mean, MAP and belief vector.
func TestBeliefQuantStepBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for run := 0; run < 200; run++ {
		e := New()
		e.ObserveFailure(rng.Intn(300))
		e.ObserveSuccess(rng.Intn(3000))
		got, err := NewFromState(e.State())
		if err != nil {
			t.Fatal(err)
		}
		gi, gb := got.MAP()
		if ei, eb := e.MAP(); got.Mean() != e.Mean() || gi != ei || gb != eb {
			t.Fatalf("run %d: (%v, %d, %v) rebuilt from counts, (%v, %d, %v) observed",
				run, got.Mean(), gi, gb, e.Mean(), ei, eb)
		}
		want := e.Beliefs()
		for i, b := range got.Beliefs() {
			if math.Float64bits(b) != math.Float64bits(want[i]) {
				t.Fatalf("run %d: belief %d is %v rebuilt, %v observed", run, i, b, want[i])
			}
		}
	}
}

// TestBeliefQuantProjection: an estimate that crosses several links in
// the count layout arrives unchanged. Each hop adopts the two integers
// and cuts them again, bit for bit, and Holds recognises the state it
// already adopted, so a re-delivered estimate is not rebuilt.
func TestBeliefQuantProjection(t *testing.T) {
	e := New()
	e.ObserveFailure(17)
	e.ObserveSuccess(1234)
	s := e.State()
	for hop := 0; hop < 5; hop++ {
		next, err := NewFromState(s)
		if err != nil {
			t.Fatal(err)
		}
		if next.Mean() != e.Mean() || next.Observations() != e.Observations() {
			t.Fatalf("hop %d: mean %v after %d observations, want %v after %d",
				hop, next.Mean(), next.Observations(), e.Mean(), e.Observations())
		}
		if !next.Holds(&s) {
			t.Fatalf("hop %d: the adopter does not hold the state it adopted", hop)
		}
		if again := next.State(); again != s {
			t.Fatalf("hop %d: re-cut %+v, want %+v", hop, again, s)
		}
	}
	moved := s
	moved.Succ++
	if e.Holds(&moved) {
		t.Error("Holds matched a state whose counts moved")
	}
}

// TestQuantizeMidRoundTrip: the belief vector a count estimator
// materializes is the one Belief reads interval by interval, peaks at the
// MAP interval and sums to 1.
func TestQuantizeMidRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for run := 0; run < 100; run++ {
		e := New()
		e.ObserveFailure(rng.Intn(100))
		e.ObserveSuccess(rng.Intn(1000))
		idx, bel := e.MAP()
		got := e.Beliefs()
		var sum float64
		for i, b := range got {
			if math.Float64bits(b) != math.Float64bits(e.Belief(i)) {
				t.Fatalf("run %d: belief %d materialized as %v, Belief reads %v", run, i, b, e.Belief(i))
			}
			if b > bel {
				t.Fatalf("run %d: belief %d is %v, above the MAP belief %v", run, i, b, bel)
			}
			sum += b
		}
		if got[idx] != bel || math.Abs(sum-1) > 1e-12 {
			t.Fatalf("run %d: MAP belief %v materialized as %v; beliefs sum to %v", run, bel, got[idx], sum)
		}
	}
}
