package bayes

import (
	"math"
	"testing"
	"testing/quick"
)

func TestStateRoundTrip(t *testing.T) {
	e := New()
	e.ObserveFailure(3)
	e.ObserveSuccess(40)
	got, err := NewFromState(e.State())
	if err != nil {
		t.Fatal(err)
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
		"negative count":      {Succ: -1},
		"evidence past bound": {Succ: MaxEvidence, Fail: 1},
	}
	for name, s := range cases {
		if _, err := NewFromState(s); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestUniformGridShared: every estimator reads the one package grid,
// which New never rebuilds, and Midpoints hands out a copy of it.
func TestUniformGridShared(t *testing.T) {
	before := grid
	mids := New().Midpoints()
	mids[0] = 7
	if grid != before || New().Midpoints()[0] != before.mid[0] {
		t.Error("the shared grid moved")
	}
}

func TestObservationsCounting(t *testing.T) {
	e := New()
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
		e := New()
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
