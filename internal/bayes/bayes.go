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
// Observing is two integer additions and a refresh of the cached
// posterior mean, the one summary the protocol reads. The vector is
// materialized on demand (Belief, Beliefs, and the MAP interval and its
// belief), in log space so that long one-sided evidence runs (thousands
// of consecutive successes on a reliable link) cannot underflow an
// interval's belief to exactly zero. The log belief is concave in the
// interval, so the MAP interval is a short climb from the empirical
// failure rate, and only the intervals near it whose weight does not
// underflow are summed. The exposed API still speaks in plain
// probabilities.
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
// An Estimator is a small value (24 bytes, no pointers): views hold it
// inline in their records and adopting one is a copy. Estimators are not
// safe for concurrent mutation; the knowledge layer serializes access,
// and the live node guards views with a mutex. The posterior mean is
// refreshed by every constructor and mutation and never on a read; the
// MAP interval and its belief are computed when asked for (MAP, Belief,
// Converged), which no read writes back, so an estimator may be read
// from several goroutines at once.
type Estimator struct {
	succ int     // successes absorbed on top of the uniform prior
	fail int     // failures absorbed on top of the uniform prior
	mean float64 // posterior mean
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

// underflow is the log-belief gap below which math.Exp returns exactly
// 0: an interval that far under the MAP adds +0 to every sum.
const underflow = -746

// peak returns the maximum-a-posteriori interval and its log belief.
// The log belief is concave in the interval, so the peak is found by
// climbing from the interval holding the empirical failure rate: down
// while the next interval is at least as likely (ties break toward the
// lower interval), else up while it is strictly more likely.
func (e *Estimator) peak() (best int, top float64) {
	if n := e.succ + e.fail; n > 0 {
		best = intervalOf(float64(e.fail) / float64(n))
	}
	top = e.logBelief(best)
	for best > 0 {
		v := e.logBelief(best - 1)
		if v < top {
			break
		}
		best, top = best-1, v
	}
	for best < Intervals-1 {
		v := e.logBelief(best + 1)
		if v <= top {
			break
		}
		best, top = best+1, v
	}
	return best, top
}

// sums returns the MAP interval and the posterior's normalizer z and
// unnormalized mean m, both relative to the MAP's belief. Only the
// intervals around the peak whose belief does not underflow are
// visited; every interval left out would add an exact +0.
func (e *Estimator) sums() (best int, m, z float64) {
	best, top := e.peak()
	var gap [Intervals]float64 // log belief relative to the MAP's; 0 at the MAP
	lo, hi := best, best
	for lo > 0 {
		x := e.logBelief(lo-1) - top
		if x < underflow {
			break
		}
		lo--
		gap[lo] = x
	}
	for hi < Intervals-1 {
		x := e.logBelief(hi+1) - top
		if x < underflow {
			break
		}
		hi++
		gap[hi] = x
	}
	for i := lo; i <= hi; i++ {
		w := math.Exp(gap[i])
		z += w
		m += w * grid.mid[i]
	}
	return best, m, z
}

// refresh recomputes the posterior mean from the sufficient statistic.
func (e *Estimator) refresh() {
	_, m, z := e.sums()
	e.mean = m / z
}

// Mean returns the posterior mean failure probability Σ_u P_B[u]*mid_u.
// This is the point estimate the adaptive protocol feeds into the MRT and
// optimize() computations.
func (e *Estimator) Mean() float64 { return e.mean }

// MAP returns the index of the maximum-a-posteriori interval and its
// belief. Ties break toward the more reliable (lower) interval.
func (e *Estimator) MAP() (interval int, belief float64) {
	best, _, z := e.sums()
	return best, 1 / z
}

// IntervalOf returns the index of the interval containing probability p.
// p is clamped to [0, 1]; p == 1 falls in the last interval, matching the
// paper's closed final interval [1-1/U, 1].
func (e *Estimator) IntervalOf(p float64) int { return intervalOf(p) }

// intervalOf is IntervalOf, for the package's own use.
func intervalOf(p float64) int {
	width := intervalWidth()
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
func intervalWidth() float64 { return grid.mid[1] - grid.mid[0] }

// IntervalBounds returns the [lo, hi) bounds of interval u (the final
// interval is closed: [1-1/U, 1]).
func (e *Estimator) IntervalBounds(u int) (lo, hi float64) {
	width := intervalWidth()
	lo = grid.mid[u] - width/2
	return lo, lo + width
}

// Belief returns P_B[u].
func (e *Estimator) Belief(u int) float64 {
	best, _, z := e.sums()
	return e.belief(u, best, 1/z)
}

// belief returns P_B[u] given the MAP interval and its belief.
func (e *Estimator) belief(u, best int, mapBel float64) float64 {
	return math.Exp(e.logBelief(u)-e.logBelief(best)) * mapBel
}

// Beliefs returns the normalized belief vector.
func (e *Estimator) Beliefs() []float64 {
	best, _, z := e.sums()
	out := make([]float64, Intervals)
	for i := range out {
		out[i] = e.belief(i, best, 1/z)
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
// networks have found the right probability interval). The interval is
// checked first: the belief costs a sum over the peak, taken only when the
// interval passes.
func (e *Estimator) Converged(truth float64, slack int, minBelief float64) bool {
	best, _ := e.peak()
	if diff := best - intervalOf(truth); diff < -slack || diff > slack {
		return false
	}
	_, _, z := e.sums()
	return 1/z >= minBelief
}
