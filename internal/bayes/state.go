package bayes

import (
	"fmt"
	"math"
)

// State is the serializable form of an Estimator, used when estimates ride
// inside heartbeat messages over a real transport: the interval count, an
// optional log-prior, and the evidence counts absorbed on top of it. A
// state cut from an estimator that never left the uniform prior — every
// estimator not rebuilt from a raw belief vector — is just (Intervals,
// Succ, Fail).
//
// LogBeliefs is shared with the estimator that produced (or will adopt)
// the state and must be treated as read-only.
type State struct {
	// Intervals is U.
	Intervals int
	// LogBeliefs is the log-prior the counts build on (len Intervals,
	// non-positive); nil is the uniform prior.
	LogBeliefs []float64
	// Succ and Fail are the success and failure events absorbed on top of
	// LogBeliefs.
	Succ, Fail int

	g *grid // the source estimator's grid; nil for a state built by hand or off the wire
}

// State returns the estimator's serializable form in O(1): grid and prior
// are immutable, so the state shares them instead of copying.
func (e *Estimator) State() State {
	s := State{Intervals: len(e.g.mid), Succ: e.succ, Fail: e.fail, g: e.g}
	if e.prior != nil {
		s.LogBeliefs = e.prior.base
	}
	return s
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
// that it is well-formed (matching lengths, log beliefs non-positive,
// counts non-negative, some posterior mass somewhere); a malformed state
// leaves e as it was. The estimator shares the memoized grid and adopts
// the state's log-prior without copying.
func (e *Estimator) Adopt(s State) error {
	u := s.Intervals
	if u < 2 {
		return fmt.Errorf("bayes: state has %d intervals, need >= 2", u)
	}
	if s.LogBeliefs != nil && len(s.LogBeliefs) != u {
		return fmt.Errorf("bayes: state mismatch: %d intervals, %d beliefs", u, len(s.LogBeliefs))
	}
	if s.Succ < 0 || s.Fail < 0 {
		return fmt.Errorf("bayes: state evidence counts (%d, %d) negative", s.Succ, s.Fail)
	}
	g := s.g
	if g == nil {
		g = uniformGrid(u)
	}
	for _, lb := range s.LogBeliefs {
		if math.IsNaN(lb) || lb > 1e-9 {
			return fmt.Errorf("bayes: state log belief %v invalid", lb)
		}
	}
	next := Estimator{g: g, succ: s.Succ, fail: s.Fail}
	if s.LogBeliefs != nil {
		next.prior = &prior{base: s.LogBeliefs}
	}
	next.refresh()
	if math.IsNaN(next.mean) {
		return fmt.Errorf("bayes: state carries no posterior mass")
	}
	*e = next
	return nil
}

// Holds reports whether e already is the estimator NewFromState(s) would
// build, for count states (raw vectors are not compared): re-adopting an
// unchanged estimate over another route need not rebuild it.
func (e *Estimator) Holds(s *State) bool {
	return s.IsCounts() && e.prior == nil &&
		len(e.g.mid) == s.Intervals && e.succ == s.Succ && e.fail == s.Fail
}

// IsCounts reports whether the state is fully described by (Intervals,
// Succ, Fail): a uniform prior. Serializers ship such a state as three
// integers.
func (s *State) IsCounts() bool { return s.LogBeliefs == nil }

// AppendLogBeliefs appends the state's belief vector in log space to dst:
// the float form the raw wire layout carries. A state without evidence ships
// its prior verbatim, so a raw vector relayed across several hops stays
// byte-identical; otherwise the posterior is materialized with its
// maximum pinned at 0.
func (s *State) AppendLogBeliefs(dst []float64) []float64 {
	if s.LogBeliefs != nil && s.Succ == 0 && s.Fail == 0 {
		return append(dst, s.LogBeliefs...)
	}
	g := s.g
	switch {
	case g != nil:
	case s.Intervals < 2:
		// Degenerate counts never correspond to a usable estimator; build
		// them privately instead of polluting the memoized grid table.
		g = newGrid(s.Intervals)
	default:
		g = uniformGrid(s.Intervals)
	}
	e := Estimator{g: g, succ: s.Succ, fail: s.Fail}
	if s.LogBeliefs != nil {
		e.prior = &prior{base: s.LogBeliefs}
	}
	return e.appendLogBeliefs(dst)
}
