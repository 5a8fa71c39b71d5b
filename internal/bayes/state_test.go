package bayes

import (
	"math"
	"testing"
	"testing/quick"
)

func TestStateRoundTrip(t *testing.T) {
	e := MustNew(25)
	e.ObserveFailure(3)
	e.ObserveSuccess(40)
	got, err := NewFromState(e.State())
	if err != nil {
		t.Fatal(err)
	}
	if got.Intervals() != 25 {
		t.Fatalf("intervals = %d", got.Intervals())
	}
	if math.Abs(got.Mean()-e.Mean()) > 1e-12 {
		t.Errorf("mean changed across state: %v vs %v", got.Mean(), e.Mean())
	}
	wantBeliefs := e.Beliefs()
	for i, b := range got.Beliefs() {
		if math.Abs(b-wantBeliefs[i]) > 1e-12 {
			t.Fatalf("belief[%d] changed: %v vs %v", i, b, wantBeliefs[i])
		}
	}
	// The reconstructed estimator keeps evolving correctly.
	got.ObserveFailure(1)
	if got.Mean() <= e.Mean() {
		t.Error("reconstructed estimator frozen")
	}
}

func TestNewFromStateValidation(t *testing.T) {
	cases := map[string]State{
		"too few intervals":   {Intervals: 1},
		"too many intervals":  {Intervals: MaxIntervals + 1},
		"negative count":      {Intervals: 5, Succ: -1},
		"evidence past bound": {Intervals: 5, Succ: MaxEvidence, Fail: 1},
	}
	for name, s := range cases {
		if _, err := NewFromState(s); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	// A state off the wire shares the memoized grid.
	e, err := NewFromState(State{Intervals: 5, Succ: 3})
	if err != nil {
		t.Fatal(err)
	}
	if e.g != uniformGrid(5) {
		t.Error("a state off the wire did not resolve to the shared grid")
	}
}

func TestUniformGridShared(t *testing.T) {
	a, b := MustNew(50), MustNew(50)
	if &a.g.mid[0] != &b.g.mid[0] {
		t.Error("uniform grids not shared between estimators")
	}
	c := MustNew(60)
	if &a.g.mid[0] == &c.g.mid[0] {
		t.Error("different interval counts share a grid")
	}
}

func TestObservationsCounting(t *testing.T) {
	e := MustNew(10)
	if e.Observations() != 0 {
		t.Fatal("fresh estimator has observations")
	}
	e.ObserveFailure(3)
	e.ObserveSuccess(7)
	e.ObserveSuccess(0) // no-op
	if got := e.Observations(); got != 10 {
		t.Errorf("observations = %d, want 10", got)
	}
	if got := e.Clone().Observations(); got != 10 {
		t.Errorf("clone observations = %d, want 10", got)
	}
}

// Property: State round-trips exactly for any update history.
func TestStateRoundTripProperty(t *testing.T) {
	f := func(ops []bool) bool {
		e := MustNew(15)
		for _, fail := range ops {
			if fail {
				e.ObserveFailure(1)
			} else {
				e.ObserveSuccess(1)
			}
		}
		got, err := NewFromState(e.State())
		if err != nil {
			return false
		}
		return math.Abs(got.Mean()-e.Mean()) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
