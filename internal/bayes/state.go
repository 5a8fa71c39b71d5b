package bayes

import "fmt"

// State is the serializable form of an Estimator, used when estimates ride
// inside heartbeat messages over a real transport: the interval count and
// the evidence counts absorbed on top of the uniform prior, which describe
// the estimator exactly.
type State struct {
	// Intervals is U.
	Intervals int
	// Succ and Fail are the success and failure events absorbed on top of
	// the uniform prior.
	Succ, Fail int

	g *grid // the source estimator's grid; nil for a state built by hand or off the wire
}

// State returns the estimator's serializable form in O(1): the grid is
// immutable, so the state shares it instead of copying.
func (e *Estimator) State() State {
	return State{Intervals: len(e.g.mid), Succ: e.succ, Fail: e.fail, g: e.g}
}

// NewFromState reconstructs an estimator from a state; see Adopt for the
// validation and the sharing rules.
func NewFromState(s State) (*Estimator, error) {
	e := new(Estimator)
	if err := e.Adopt(s); err != nil {
		return nil, err
	}
	return e, nil
}

// Adopt overwrites e with the estimator the state describes, validating
// that it is well-formed (U in [2, MaxIntervals], counts non-negative and
// at most MaxEvidence together); a malformed state leaves e as it was.
// The estimator shares the memoized grid.
func (e *Estimator) Adopt(s State) error {
	if err := checkIntervals(s.Intervals); err != nil {
		return err
	}
	if s.Succ < 0 || s.Fail < 0 || s.Succ > MaxEvidence-s.Fail {
		return fmt.Errorf("bayes: state evidence counts (%d, %d) outside [0,%d]", s.Succ, s.Fail, MaxEvidence)
	}
	g := s.g
	if g == nil {
		g = uniformGrid(s.Intervals)
	}
	*e = Estimator{g: g, succ: s.Succ, fail: s.Fail}
	e.refresh()
	return nil
}

// Holds reports whether e already is the estimator NewFromState(s) would
// build: re-adopting an unchanged estimate over another route need not
// rebuild it.
func (e *Estimator) Holds(s *State) bool {
	return len(e.g.mid) == s.Intervals && e.succ == s.Succ && e.fail == s.Fail
}
