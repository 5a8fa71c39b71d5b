// Package bayes implements the paper's reliability-belief machinery
// (Algorithm 5): a process approximates the unknown failure probability of
// a process or link by maintaining U probability intervals and, for each,
// a belief that the true probability lies in that interval. Observing a
// failure (or a failure suspicion) shifts belief mass toward lossy
// intervals via Bayes' rule; observing a success shifts it toward reliable
// intervals. This forms the tiny Bayesian network b → s the paper
// describes.
//
// The invariant Σ_u P_B[u] = 1 holds after every update (Table 1 of the
// paper illustrates one decreaseReliability step with U = 5; the
// experiments package computes it from the same update rule).
//
// An estimator does not store the belief vector. Every estimator starts
// from the uniform prior and only ever absorbs integer success and
// failure counts, so its posterior is a pure function of two integers,
// (successes, failures):
//
//	log P_B[u] ∝ failures·log(mid_u) + successes·log(1−mid_u)
//
// Observing is two integer additions; the vector is materialized on
// demand (Belief, Beliefs), in log space so that long one-sided evidence
// runs (thousands of consecutive successes on a reliable link) cannot
// underflow an interval's belief to exactly zero. The exposed API still
// speaks in plain probabilities.
//
// U is the paper's constant, Intervals = 100 (Algorithm 5 line 2), and
// every estimator shares one grid. There is no knob: the paper leaves
// dynamic precision as future work, no deployment sets another U, and a
// U carried per view, per wire section and per record only gave a peer
// one more integer to forge and the receiver one more grid to build.
package bayes

import "math"

// Intervals is U, the paper's interval count ("precision of
// probabilistic intervals", U = 100, Algorithm 5 line 2).
const Intervals = 100

// MaxEvidence bounds successes+failures, so that count·log(mid) stays a
// well-conditioned float64: 2^40 events is a heartbeat per millisecond
// for 35 years. Observations past it saturate.
const MaxEvidence = 1 << 40

// grid is the interval geometry every estimator shares: the paper's
// uniform midpoints P_{F|B}[u] = (2u+1)/(2U) and their cached log
// likelihoods. It is built once and never changes.
var grid = func() (g struct{ mid, logFail, logSucc [Intervals]float64 }) {
	for i := range g.mid {
		m := float64(2*i+1) / float64(2*Intervals)
		g.mid[i], g.logFail[i], g.logSucc[i] = m, math.Log(m), math.Log(1-m)
	}
	return g
}()

// Estimator approximates one failure probability with U probability
// intervals and per-interval beliefs. The zero value is unusable; use New.
//
// An Estimator is a small value (40 bytes, no pointers): views hold it
// inline in their records and adopting one is a copy. Estimators are not
// safe for concurrent mutation; the knowledge layer serializes access,
// and the live node guards views with a mutex. The posterior summary
// (mean, MAP) is refreshed by every constructor and mutation and never on
// a read, so an estimator may be read from several goroutines at once.
type Estimator struct {
	succ int // successes absorbed on top of the uniform prior
	fail int // failures absorbed on top of the uniform prior

	mean   float64 // posterior mean
	mapBel float64 // MAP belief, 1/Σ_u exp(logBel[u]-max)
	mapIdx int32   // maximum-a-posteriori interval
}

// New returns an estimator with a uniform prior, matching
// initializeReliability() of Algorithm 5.
func New() *Estimator {
	e := new(Estimator)
	e.refresh()
	return e
}

// ObserveFailure applies decreaseReliability(estimate, factor): it updates
// the beliefs as if `factor` independent failure events had been observed.
// factor <= 0 is a no-op, and the evidence saturates at MaxEvidence.
func (e *Estimator) ObserveFailure(factor int) {
	if factor = e.room(factor); factor > 0 {
		e.fail += factor
		e.refresh()
	}
}

// ObserveSuccess applies increaseReliability(estimate, factor): it updates
// the beliefs as if `factor` independent success (absence-of-failure)
// events had been observed. factor <= 0 is a no-op, and the evidence
// saturates at MaxEvidence.
func (e *Estimator) ObserveSuccess(factor int) {
	if factor = e.room(factor); factor > 0 {
		e.succ += factor
		e.refresh()
	}
}

// room clamps an observation to the evidence MaxEvidence still admits.
func (e *Estimator) room(factor int) int {
	return min(factor, MaxEvidence-e.succ-e.fail)
}

// logBelief returns the unnormalized log belief of interval i: the log
// likelihood of the evidence under the uniform prior.
func (e *Estimator) logBelief(i int) float64 {
	return float64(e.fail)*grid.logFail[i] + float64(e.succ)*grid.logSucc[i]
}

// refresh recomputes the posterior summary from the sufficient statistic.
func (e *Estimator) refresh() {
	best, max := 0, math.Inf(-1)
	for i := range grid.mid {
		if v := e.logBelief(i); v > max {
			best, max = i, v
		}
	}
	var m, z float64
	for i, mid := range &grid.mid {
		w := math.Exp(e.logBelief(i) - max)
		z += w
		m += w * mid
	}
	e.mean, e.mapIdx, e.mapBel = m/z, int32(best), 1/z
}

// Mean returns the posterior mean failure probability Σ_u P_B[u]*mid_u.
// This is the point estimate the adaptive protocol feeds into the MRT and
// optimize() computations.
func (e *Estimator) Mean() float64 { return e.mean }

// MAP returns the index of the maximum-a-posteriori interval and its
// belief. Ties break toward the more reliable (lower) interval.
func (e *Estimator) MAP() (interval int, belief float64) { return int(e.mapIdx), e.mapBel }

// IntervalOf returns the index of the interval containing probability p.
// p is clamped to [0, 1]; p == 1 falls in the last interval, matching the
// paper's closed final interval [1-1/U, 1].
func (e *Estimator) IntervalOf(p float64) int {
	width := e.intervalWidth()
	lo := grid.mid[0] - width/2
	i := int((p - lo) / width)
	if i < 0 {
		return 0
	}
	if i >= Intervals {
		return Intervals - 1
	}
	return i
}

// intervalWidth returns the width of one probability interval.
func (e *Estimator) intervalWidth() float64 { return grid.mid[1] - grid.mid[0] }

// IntervalBounds returns the [lo, hi) bounds of interval u (the final
// interval is closed: [1-1/U, 1]).
func (e *Estimator) IntervalBounds(u int) (lo, hi float64) {
	width := e.intervalWidth()
	lo = grid.mid[u] - width/2
	return lo, lo + width
}

// Belief returns P_B[u].
func (e *Estimator) Belief(u int) float64 {
	return math.Exp(e.logBelief(u)-e.logBelief(int(e.mapIdx))) * e.mapBel
}

// Beliefs returns the normalized belief vector.
func (e *Estimator) Beliefs() []float64 {
	out := make([]float64, Intervals)
	for i := range out {
		out[i] = e.Belief(i)
	}
	return out
}

// Midpoints returns a copy of the interval midpoint vector P_{F|B}.
func (e *Estimator) Midpoints() []float64 {
	out := make([]float64, Intervals)
	copy(out, grid.mid[:])
	return out
}

// BeliefSum returns Σ_u P_B[u]; it is 1 by construction up to
// floating-point error (the paper's stated invariant of Algorithm 4).
func (e *Estimator) BeliefSum() float64 {
	var s float64
	for _, b := range e.Beliefs() {
		s += b
	}
	return s
}

// Clone returns an independent copy of the estimator on the heap. An
// assignment of the value is the same copy, which is how a view adopts a
// neighbor's less-distorted estimate (Algorithm 3).
func (e *Estimator) Clone() *Estimator {
	c := *e
	return &c
}

// Observations returns the evidence count absorbed on top of the uniform
// prior: everything observed.
func (e *Estimator) Observations() int { return e.succ + e.fail }

// Converged reports whether the estimator has locked onto the true failure
// probability: the MAP interval contains truth (within `slack` neighboring
// intervals) and carries at least minBelief posterior mass. This is the
// convergence criterion behind the paper's Figures 5 and 6 ("all processes
// in the system learn the reliability probabilities" — i.e. the Bayesian
// networks have found the right probability interval).
func (e *Estimator) Converged(truth float64, slack int, minBelief float64) bool {
	if e.mapBel < minBelief {
		return false
	}
	diff := int(e.mapIdx) - e.IntervalOf(truth)
	if diff < 0 {
		diff = -diff
	}
	return diff <= slack
}
