package bayes

import "fmt"

// State is the serializable form of an Estimator, used when estimates ride
// inside heartbeat messages over a real transport: the evidence counts
// absorbed on top of the uniform prior, which describe the estimator
// exactly.
type State struct {
	Succ, Fail int
}

// State returns the estimator's serializable form.
func (e *Estimator) State() State {
	return State{Succ: e.succ, Fail: e.fail}
}

// NewFromState reconstructs an estimator from a state; see Adopt for the
// validation.
func NewFromState(s State) (*Estimator, error) {
	e := new(Estimator)
	if err := e.Adopt(s); err != nil {
		return nil, err
	}
	return e, nil
}

// Adopt overwrites e with the estimator the state describes, validating
// that it is well-formed (counts non-negative and at most MaxEvidence
// together); a malformed state leaves e as it was.
func (e *Estimator) Adopt(s State) error {
	if s.Succ < 0 || s.Fail < 0 || s.Succ > MaxEvidence-s.Fail {
		return fmt.Errorf("bayes: state evidence counts (%d, %d) outside [0,%d]", s.Succ, s.Fail, MaxEvidence)
	}
	*e = Estimator{succ: s.Succ, fail: s.Fail}
	e.refresh()
	return nil
}

// Holds reports whether e already is the estimator NewFromState(s) would
// build: re-adopting an unchanged estimate over another route need not
// rebuild it.
func (e *Estimator) Holds(s *State) bool {
	return e.succ == s.Succ && e.fail == s.Fail
}
