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

func TestStateRoundTripRefined(t *testing.T) {
	e := MustNew(DefaultIntervals)
	e.ObserveFailure(40)
	e.ObserveSuccess(960)
	r := e.Refine()
	got, err := NewFromState(r.State())
	if err != nil {
		t.Fatal(err)
	}
	rm := r.Midpoints()
	gm := got.Midpoints()
	for i := range rm {
		if rm[i] != gm[i] {
			t.Fatalf("refined midpoints changed at %d: %v vs %v", i, rm[i], gm[i])
		}
	}
	if math.Abs(got.Mean()-r.Mean()) > 1e-12 {
		t.Errorf("refined mean changed: %v vs %v", got.Mean(), r.Mean())
	}
}

func TestNewFromStateValidation(t *testing.T) {
	mids := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	flat := make([]float64, 5)
	cases := map[string]State{
		"too few intervals": {Intervals: 1, Mids: []float64{0.5}, LogBeliefs: []float64{0}},
		"mids mismatch":     {Intervals: 5, Mids: mids[:3]},
		"beliefs mismatch":  {Intervals: 5, LogBeliefs: flat[:3]},
		"mid at zero":       {Intervals: 5, Mids: []float64{0, 0.3, 0.5, 0.7, 0.9}, LogBeliefs: flat},
		"mid at one":        {Intervals: 5, Mids: []float64{0.1, 0.3, 0.5, 0.7, 1}, LogBeliefs: flat},
		"positive logbel":   {Intervals: 5, Mids: mids, LogBeliefs: []float64{1, 0, 0, 0, 0}},
		"nan logbel":        {Intervals: 5, Mids: mids, LogBeliefs: []float64{math.NaN(), 0, 0, 0, 0}},
		"negative count":    {Intervals: 5, Succ: -1},
		"no mass":           {Intervals: 2, LogBeliefs: []float64{math.Inf(-1), math.Inf(-1)}},
	}
	for name, s := range cases {
		if _, err := NewFromState(s); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	// Explicit midpoints that happen to be the uniform grid share it.
	e, err := NewFromState(State{Intervals: 5, Mids: mids, LogBeliefs: flat})
	if err != nil {
		t.Fatal(err)
	}
	if e.g != uniformGrid(5) {
		t.Error("explicit uniform midpoints did not resolve to the shared grid")
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
	if got := e.Refine().Observations(); got != 10 {
		t.Errorf("refined observations = %d, want 10", got)
	}
}

func TestEdgeStuck(t *testing.T) {
	e := MustNew(10)
	if e.EdgeStuck(0.3) {
		t.Error("uniform prior reported edge-stuck")
	}
	e.ObserveSuccess(500) // all mass on interval 0
	if !e.EdgeStuck(0.3) {
		t.Error("mass on first interval not reported")
	}
	f := MustNew(10)
	f.ObserveFailure(500) // all mass on the last interval
	if !f.EdgeStuck(0.3) {
		t.Error("mass on last interval not reported")
	}
	g := MustNew(10)
	g.ObserveFailure(300)
	g.ObserveSuccess(300) // mass in the middle
	if g.EdgeStuck(0.3) {
		t.Error("central mass reported edge-stuck")
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
