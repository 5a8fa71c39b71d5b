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
// paper illustrates one decreaseReliability step with U = 5).
//
// An estimator does not store the belief vector. Every estimator starts
// from the uniform prior and only ever absorbs integer success and
// failure counts, so its posterior is a pure function of three integers,
// (U, successes, failures):
//
//	log P_B[u] ∝ failures·log(mid_u) + successes·log(1−mid_u)
//
// Observing is two integer additions; the vector is materialized on
// demand (Belief, Beliefs), in log space so that long one-sided evidence
// runs (thousands of consecutive successes on a reliable link) cannot
// underflow an interval's belief to exactly zero. The exposed API still
// speaks in plain probabilities.
//
// The grid is the paper's fixed one: U uniform intervals. Dynamic
// precision, which the paper proposes as future work, is not implemented.
package bayes

import (
	"container/list"
	"fmt"
	"math"
	"sync"
)

// DefaultIntervals is the interval count the paper uses in its simulations
// ("precision of probabilistic intervals", U = 100, Algorithm 5 line 2).
const DefaultIntervals = 100

// MaxIntervals bounds the interval count U of an estimator. U sizes the
// grid an estimator is built on, and a state off the wire declares it in
// a few bytes whatever its value; 4096 is 40× the paper's precision.
const MaxIntervals = 1 << 12

// MaxEvidence bounds successes+failures, so that count·log(mid) stays a
// well-conditioned float64: 2^40 events is a heartbeat per millisecond
// for 35 years. Observations past it saturate.
const MaxEvidence = 1 << 40

// grid is the immutable interval geometry of an estimator: the uniform
// midpoints and their cached log likelihoods. Estimators with the same
// interval count share one grid (it never changes after construction).
type grid struct {
	mid     []float64 // P_{F|B}[u] = (2u-1)/(2U): midpoint of interval u
	logFail []float64 // log(mid), cached
	logSucc []float64 // log(1-mid), cached
}

// maxCachedGrids bounds the uniform-grid memo table. Well-behaved
// systems use a handful of interval counts (one U per deployment, plus
// test sizes), but the count comes off the wire: without a bound, a
// hostile or misconfigured peer cycling through distinct huge interval
// counts would grow the table — three O(U) slices per entry — without
// limit. Far beyond any legitimate variety, far below any memory risk.
const maxCachedGrids = 64

var (
	gridsMu  sync.Mutex
	grids    = map[int]*list.Element{} // uniform grids, keyed by interval count
	gridsLRU = list.New()              // front = most recently used gridEntry
)

type gridEntry struct {
	u int
	g *grid
}

// uniformGrid returns the shared uniform grid with u intervals, memoized
// in a bounded LRU: the hot sizes (a deployment's U, the estimators a
// cluster actually exchanges) stay cached, while one-off hostile sizes
// age out instead of accumulating. An evicted grid still works — any
// estimator holding it keeps it alive; only the sharing is lost.
func uniformGrid(u int) *grid {
	gridsMu.Lock()
	defer gridsMu.Unlock()
	if el, ok := grids[u]; ok {
		gridsLRU.MoveToFront(el)
		return el.Value.(*gridEntry).g
	}
	g := newGrid(u)
	grids[u] = gridsLRU.PushFront(&gridEntry{u: u, g: g})
	for gridsLRU.Len() > maxCachedGrids {
		oldest := gridsLRU.Back()
		gridsLRU.Remove(oldest)
		delete(grids, oldest.Value.(*gridEntry).u)
	}
	return g
}

// cachedGrids reports the memo table size (tests).
func cachedGrids() int {
	gridsMu.Lock()
	defer gridsMu.Unlock()
	return gridsLRU.Len()
}

// newGrid builds the grid of u intervals: the paper's midpoints
// (2u-1)/2U and their log likelihoods.
func newGrid(u int) *grid {
	g := &grid{mid: make([]float64, u), logFail: make([]float64, u), logSucc: make([]float64, u)}
	for i := range g.mid {
		m := float64(2*i+1) / float64(2*u)
		g.mid[i], g.logFail[i], g.logSucc[i] = m, math.Log(m), math.Log(1-m)
	}
	return g
}

// Estimator approximates one failure probability with U probability
// intervals and per-interval beliefs. The zero value is unusable; use New.
//
// An Estimator is a small value (48 bytes): views hold it inline in their
// records and adopting one is a copy. Estimators are not safe for
// concurrent mutation; the knowledge layer serializes access, and the live
// node guards views with a mutex. The posterior summary (mean, MAP) is
// refreshed by every constructor and mutation and never on a read, so an
// estimator may be read from several goroutines at once.
type Estimator struct {
	g    *grid
	succ int // successes absorbed on top of the uniform prior
	fail int // failures absorbed on top of the uniform prior

	mean   float64 // posterior mean
	mapBel float64 // MAP belief, 1/Σ_u exp(logBel[u]-max)
	mapIdx int32   // maximum-a-posteriori interval
}

// New returns an estimator over u intervals with a uniform prior, matching
// initializeReliability() of Algorithm 5. u must lie in [2, MaxIntervals].
func New(u int) (*Estimator, error) {
	if err := checkIntervals(u); err != nil {
		return nil, err
	}
	e := &Estimator{g: uniformGrid(u)}
	e.refresh()
	return e, nil
}

// checkIntervals bounds an interval count to [2, MaxIntervals].
func checkIntervals(u int) error {
	if u < 2 || u > MaxIntervals {
		return fmt.Errorf("bayes: %d intervals outside [2,%d]", u, MaxIntervals)
	}
	return nil
}

// MustNew is New for callers with a compile-time constant interval count.
// It panics on invalid u.
func MustNew(u int) *Estimator {
	e, err := New(u)
	if err != nil {
		panic(err)
	}
	return e
}

// Intervals returns U, the number of probability intervals.
func (e *Estimator) Intervals() int { return len(e.g.mid) }

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
	return float64(e.fail)*e.g.logFail[i] + float64(e.succ)*e.g.logSucc[i]
}

// refresh recomputes the posterior summary from the sufficient statistic.
func (e *Estimator) refresh() {
	best, max := 0, math.Inf(-1)
	for i := range e.g.mid {
		if v := e.logBelief(i); v > max {
			best, max = i, v
		}
	}
	var m, z float64
	for i, mid := range e.g.mid {
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
	u := len(e.g.mid)
	width := e.intervalWidth()
	lo := e.g.mid[0] - width/2
	i := int((p - lo) / width)
	if i < 0 {
		return 0
	}
	if i >= u {
		return u - 1
	}
	return i
}

// intervalWidth returns the width of one probability interval. Every
// grid has at least two intervals (checkIntervals).
func (e *Estimator) intervalWidth() float64 { return e.g.mid[1] - e.g.mid[0] }

// IntervalBounds returns the [lo, hi) bounds of interval u (the final
// interval is closed: [1-1/U, 1]).
func (e *Estimator) IntervalBounds(u int) (lo, hi float64) {
	width := e.intervalWidth()
	lo = e.g.mid[u] - width/2
	return lo, lo + width
}

// Belief returns P_B[u].
func (e *Estimator) Belief(u int) float64 {
	return math.Exp(e.logBelief(u)-e.logBelief(int(e.mapIdx))) * e.mapBel
}

// Beliefs returns the normalized belief vector.
func (e *Estimator) Beliefs() []float64 {
	out := make([]float64, len(e.g.mid))
	for i := range out {
		out[i] = e.Belief(i)
	}
	return out
}

// Midpoints returns a copy of the interval midpoint vector P_{F|B}.
func (e *Estimator) Midpoints() []float64 {
	out := make([]float64, len(e.g.mid))
	copy(out, e.g.mid)
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

// Clone returns an independent copy of the estimator on the heap. The grid
// is immutable and shared, so a clone copies a few words; an
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
