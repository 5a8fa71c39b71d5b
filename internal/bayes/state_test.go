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

// TestStateRoundTripRefined keeps the name it had when refined grids
// existed. Its subject is now the other non-count estimator: one whose
// prior is a raw log-belief vector, as a piggybacked data frame delivers
// it, with evidence observed on top. Its state carries the prior and the
// counts, and rebuilds the same posterior around the same shared prior.
func TestStateRoundTripRefined(t *testing.T) {
	r := rawPrior(t, 40, 960)
	r.ObserveFailure(3)
	r.ObserveSuccess(70)
	s := r.State()
	if s.IsCounts() || s.Succ != 70 || s.Fail != 3 {
		t.Fatalf("raw-prior state %+v, want the prior plus (70, 3)", s)
	}
	got, err := NewFromState(s)
	if err != nil {
		t.Fatal(err)
	}
	if &got.prior.base[0] != &r.prior.base[0] {
		t.Error("the rebuilt estimator copied the prior instead of sharing it")
	}
	if got.Mean() != r.Mean() {
		t.Errorf("raw-prior mean changed: %v vs %v", got.Mean(), r.Mean())
	}
}

// rawPrior is an estimator adopted from the raw log-belief vector of one
// that observed succ successes and fail failures.
func rawPrior(tb testing.TB, fail, succ int) *Estimator {
	tb.Helper()
	e := MustNew(DefaultIntervals)
	e.ObserveFailure(fail)
	e.ObserveSuccess(succ)
	s := e.State()
	r, err := NewFromState(State{Intervals: s.Intervals, LogBeliefs: s.AppendLogBeliefs(nil)})
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

func TestNewFromStateValidation(t *testing.T) {
	flat := make([]float64, 5)
	cases := map[string]State{
		"too few intervals": {Intervals: 1, LogBeliefs: []float64{0}},
		"beliefs mismatch":  {Intervals: 5, LogBeliefs: flat[:3]},
		"positive logbel":   {Intervals: 5, LogBeliefs: []float64{1, 0, 0, 0, 0}},
		"nan logbel":        {Intervals: 5, LogBeliefs: []float64{math.NaN(), 0, 0, 0, 0}},
		"negative count":    {Intervals: 5, Succ: -1},
		"no mass":           {Intervals: 2, LogBeliefs: []float64{math.Inf(-1), math.Inf(-1)}},
	}
	for name, s := range cases {
		if _, err := NewFromState(s); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	// A raw vector off the wire shares the memoized grid.
	e, err := NewFromState(State{Intervals: 5, LogBeliefs: flat})
	if err != nil {
		t.Fatal(err)
	}
	if e.g != uniformGrid(5) {
		t.Error("a raw-vector state did not resolve to the shared grid")
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
	r, err := NewFromState(State{Intervals: 10, LogBeliefs: e.appendLogBeliefs(nil)})
	if err != nil {
		t.Fatal(err)
	}
	r.ObserveSuccess(2)
	if got := r.Observations(); got != 2 {
		t.Errorf("raw-prior observations = %d, want the 2 observed on top of the prior", got)
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
