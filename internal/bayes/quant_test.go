package bayes

import (
	"math"
	"math/rand"
	"testing"
)

// The five tests below keep the names they had when the wire's compact
// profile was the v4 quantized encoding. The compact profile today is the
// count layout: a state described by (Intervals, Succ, Fail) alone, which
// a heartbeat ships as three integers. They pin that layout and its bounds.

// offWire is s as a decoder builds it from a count record: the three
// integers and nothing shared with the estimator that cut it.
func offWire(s State) State {
	return State{Intervals: s.Intervals, Succ: s.Succ, Fail: s.Fail}
}

// TestBeliefQuantScale: which states are count states. An estimator that
// only ever observed is one, and its state carries exactly what it
// observed; one rebuilt from a raw vector carries a prior no count record
// can describe, and is not.
func TestBeliefQuantScale(t *testing.T) {
	e := MustNew(DefaultIntervals)
	e.ObserveFailure(4)
	e.ObserveSuccess(96)
	s := e.State()
	if !s.IsCounts() || s.Intervals != DefaultIntervals || s.Succ != 96 || s.Fail != 4 {
		t.Fatalf("observed-only estimator cut %+v, want the count state (100, 96, 4)", s)
	}
	if c := e.Clone().State(); !c.IsCounts() {
		t.Error("a clone of a count estimator is not one")
	}
	raw, err := NewFromState(State{Intervals: 4, LogBeliefs: []float64{0, -1, -2, -3}})
	if err != nil {
		t.Fatal(err)
	}
	if rs := raw.State(); rs.IsCounts() {
		t.Error("an estimator rebuilt from a raw vector cut a count state")
	}
}

// TestQuantizeBeliefBounds: the bounds Adopt puts on a count state. Fewer
// than two intervals and negative counts are refused and leave the
// estimator as it was; counts as large as the wire admits (2^40 events)
// still summarize to a finite mean inside (0, 1).
func TestQuantizeBeliefBounds(t *testing.T) {
	e := MustNew(10)
	e.ObserveSuccess(30)
	mean := e.Mean()
	for name, s := range map[string]State{
		"no intervals":     {Intervals: 0, Succ: 1},
		"one interval":     {Intervals: 1, Succ: 1},
		"negative success": {Intervals: 10, Succ: -1},
		"negative failure": {Intervals: 10, Fail: -1},
	} {
		if err := e.Adopt(s); err == nil {
			t.Errorf("%s: Adopt accepted %+v", name, s)
		}
		if e.Mean() != mean || e.Observations() != 30 {
			t.Fatalf("%s: a refused state moved the estimate", name)
		}
	}
	for _, s := range []State{
		{Intervals: 4096, Succ: 1<<40 - 1, Fail: 1},
		{Intervals: 2, Fail: 1 << 40},
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
// step to bound. Over random schedules an estimator rebuilt from the three
// integers alone has the bit-identical mean, MAP and belief vector.
func TestBeliefQuantStepBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for run := 0; run < 200; run++ {
		e := MustNew(2 + rng.Intn(DefaultIntervals))
		e.ObserveFailure(rng.Intn(300))
		e.ObserveSuccess(rng.Intn(3000))
		got, err := NewFromState(offWire(e.State()))
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
// the count layout arrives unchanged. Each hop adopts the three integers
// and cuts them again, bit for bit, and Holds recognises the state it
// already adopted, so a re-delivered estimate is not rebuilt.
func TestBeliefQuantProjection(t *testing.T) {
	e := MustNew(DefaultIntervals)
	e.ObserveFailure(17)
	e.ObserveSuccess(1234)
	s := offWire(e.State())
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
		if again := next.State(); !again.IsCounts() || again.Intervals != s.Intervals ||
			again.Succ != s.Succ || again.Fail != s.Fail {
			t.Fatalf("hop %d: re-cut %+v, want %+v", hop, again, s)
		}
	}
	moved := s
	moved.Succ++
	if e.Holds(&moved) {
		t.Error("Holds matched a state whose counts moved")
	}
}

// TestQuantizeMidRoundTrip: a count state materializes, for the raw wire
// layouts, exactly the vector its estimator does, with the maximum pinned
// at 0; a degenerate count state materializes without touching the
// uniform-grid cache.
func TestQuantizeMidRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for run := 0; run < 100; run++ {
		e := MustNew(DefaultIntervals)
		e.ObserveFailure(rng.Intn(100))
		e.ObserveSuccess(rng.Intn(1000))
		s := offWire(e.State())
		got, want := s.AppendLogBeliefs(nil), e.appendLogBeliefs(nil)
		max := math.Inf(-1)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("run %d: log belief %d materialized as %v, the estimator's is %v", run, i, got[i], want[i])
			}
			max = math.Max(max, got[i])
		}
		if max != 0 {
			t.Fatalf("run %d: materialized maximum %v, want 0", run, max)
		}
	}
	before := cachedGrids()
	if got := (&State{Intervals: 1, Succ: 3}).AppendLogBeliefs(nil); len(got) != 1 {
		t.Errorf("a one-interval count state materialized %d beliefs", len(got))
	}
	if cachedGrids() != before {
		t.Error("a degenerate count state entered the uniform-grid cache")
	}
}
