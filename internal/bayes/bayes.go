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
// from a prior — uniform, or an immutable log-prior left by Refine or a
// raw wire state — and only ever absorbs integer success and failure
// counts, so its posterior is a pure function of a few words:
//
//	log P_B[u] ∝ prior[u] + failures·log(mid_u) + successes·log(1−mid_u)
//
// Observing is two integer additions; the vector is materialized on
// demand (Beliefs, Refine, the raw wire layout), in log space so that
// long one-sided evidence runs (thousands of consecutive successes on a
// reliable link) cannot underflow an interval's belief to exactly zero.
// The exposed API still speaks in plain probabilities.
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

// grid is the immutable interval geometry of an estimator: the midpoints
// and their cached log likelihoods. Estimators with the same interval
// count share one grid (it never changes after construction). Uniform
// grids are memoized per interval count; Refine builds private grids.
type grid struct {
	mid     []float64 // P_{F|B}[u] = (2u-1)/(2U): midpoint of interval u
	logFail []float64 // log(mid), cached
	logSucc []float64 // log(1-mid), cached
	uniform bool      // the memoized standard grid: serializes as its interval count
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
	g := gridFromMids(uniformMids(u))
	g.uniform = true
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

// uniformMids returns the paper's midpoints (2u-1)/2U.
func uniformMids(u int) []float64 {
	mids := make([]float64, u)
	for i := 0; i < u; i++ {
		mids[i] = float64(2*i+1) / float64(2*u)
	}
	return mids
}

// gridFromMids builds a grid, caching the log likelihoods. Midpoints must
// lie strictly inside (0, 1).
func gridFromMids(mids []float64) *grid {
	g := &grid{
		mid:     mids,
		logFail: make([]float64, len(mids)),
		logSucc: make([]float64, len(mids)),
	}
	for i, m := range mids {
		g.logFail[i] = math.Log(m)
		g.logSucc[i] = math.Log(1 - m)
	}
	return g
}

// Estimator approximates one failure probability with U probability
// intervals and per-interval beliefs. The zero value is unusable; use New.
//
// An Estimator is a small value (56 bytes): views hold it inline in their
// records and adopting one is a copy. Estimators are not safe for
// concurrent mutation; the knowledge layer serializes access, and the live
// node guards views with a mutex. The posterior summary (mean, MAP) is
// refreshed by every constructor and mutation and never on a read, so an
// estimator may be read from several goroutines at once.
type Estimator struct {
	g     *grid
	prior *prior // nil for the uniform prior, which every count estimator has
	succ  int    // successes absorbed on top of the prior
	fail  int    // failures absorbed on top of the prior

	mean   float64 // posterior mean
	mapBel float64 // MAP belief, 1/Σ_u exp(logBel[u]-max)
	mapIdx int32   // maximum-a-posteriori interval
}

// prior is an estimator's non-uniform starting point: an immutable
// log-prior (left by Refine, or shipped as a raw wire vector) and the
// evidence already folded into it.
type prior struct {
	base []float64
	obs  int
}

// New returns an estimator over u intervals with a uniform prior, matching
// initializeReliability() of Algorithm 5. u must be at least 2.
func New(u int) (*Estimator, error) {
	if u < 2 {
		return nil, fmt.Errorf("bayes: need at least 2 intervals, got %d", u)
	}
	e := &Estimator{g: uniformGrid(u)}
	e.refresh()
	return e, nil
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

// GridSignature identifies the estimator's discretization without copying
// it: the interval count plus the first midpoint. The standard uniform
// grid and every Refine window differ in at least one of the two, so
// comparing signatures detects re-gridding in O(1); delta heartbeats use
// this to decide whether an estimate must be re-shipped.
func (e *Estimator) GridSignature() (intervals int, firstMid float64) {
	return len(e.g.mid), e.g.mid[0]
}

// ObserveFailure applies decreaseReliability(estimate, factor): it updates
// the beliefs as if `factor` independent failure events had been observed.
// factor <= 0 is a no-op.
func (e *Estimator) ObserveFailure(factor int) {
	if factor <= 0 {
		return
	}
	e.fail += factor
	e.refresh()
}

// ObserveSuccess applies increaseReliability(estimate, factor): it updates
// the beliefs as if `factor` independent success (absence-of-failure)
// events had been observed. factor <= 0 is a no-op.
func (e *Estimator) ObserveSuccess(factor int) {
	if factor <= 0 {
		return
	}
	e.succ += factor
	e.refresh()
}

// logBelief returns the unnormalized log belief of interval i: the prior
// plus the log likelihood of the evidence. Materialization and the
// summary refresh both evaluate exactly this expression, so a state that
// crossed the wire as a raw vector summarizes to the same bits as the
// counts it was cut from.
func (e *Estimator) logBelief(i int) float64 {
	v := float64(e.fail)*e.g.logFail[i] + float64(e.succ)*e.g.logSucc[i]
	if e.prior != nil {
		v += e.prior.base[i]
	}
	return v
}

// appendLogBeliefs appends the log-belief vector, shifted so its maximum
// is 0 (the range where exp() is meaningful), to dst.
func (e *Estimator) appendLogBeliefs(dst []float64) []float64 {
	from := len(dst)
	max := math.Inf(-1)
	for i := range e.g.mid {
		v := e.logBelief(i)
		if v > max {
			max = v
		}
		dst = append(dst, v)
	}
	for i := from; i < len(dst); i++ {
		dst[i] -= max
	}
	return dst
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
// paper's closed final interval [1-1/U, 1]. (For refined estimators the
// grid covers a sub-range; probabilities outside it clamp to the boundary
// intervals.)
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

// intervalWidth returns the width of one probability interval.
func (e *Estimator) intervalWidth() float64 {
	if len(e.g.mid) == 1 {
		return 1
	}
	return e.g.mid[1] - e.g.mid[0]
}

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
	out := e.appendLogBeliefs(make([]float64, 0, len(e.g.mid)))
	for i, lb := range out {
		out[i] = math.Exp(lb) * e.mapBel
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

// Clone returns an independent copy of the estimator on the heap. Grid and
// prior are immutable and shared, so a clone copies a few words; an
// assignment of the value is the same copy, which is how a view adopts a
// neighbor's less-distorted estimate (Algorithm 3).
func (e *Estimator) Clone() *Estimator {
	c := *e
	return &c
}

// Observations returns the total evidence count absorbed so far. The
// dynamic-refinement extension gates on it: refining before enough
// evidence has accumulated risks re-gridding around a transient MAP.
func (e *Estimator) Observations() int {
	if e.prior != nil {
		return e.prior.obs + e.succ + e.fail
	}
	return e.succ + e.fail
}

// EdgeStuck reports whether at least minMass posterior mass sits on the
// grid's first or last interval — for a refined estimator this means the
// truth most likely lies outside the refined window and the refinement
// should be abandoned.
func (e *Estimator) EdgeStuck(minMass float64) bool {
	if e.mapBel < minMass {
		return false
	}
	return e.mapIdx == 0 || int(e.mapIdx) == len(e.g.mid)-1
}

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

// Refine is the paper's proposed future-work extension ("dynamically
// increasing the number of probabilistic intervals when better precision
// is required"): it re-grids the estimator so the same number of intervals
// covers only the current MAP interval's neighborhood. The accumulated
// posterior carries over as the refined estimator's prior — each refined
// interval inherits the belief density of the coarse interval containing
// it — so past evidence keeps constraining the estimate at coarse
// granularity while new evidence resolves the sub-interval detail.
func (e *Estimator) Refine() *Estimator {
	lo, hi := e.IntervalBounds(int(e.mapIdx))
	// Widen by one interval on each side so a truth near the boundary is
	// not excluded by an early, slightly-off MAP.
	width := hi - lo
	lo -= width
	hi += width
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	u := len(e.g.mid)
	coarse := e.appendLogBeliefs(make([]float64, 0, u))
	mids := make([]float64, u)
	base := make([]float64, u)
	span := hi - lo
	for i := 0; i < u; i++ {
		mids[i] = lo + span*float64(2*i+1)/float64(2*u)
		// Inherit the density of the coarse interval this midpoint falls
		// in (piecewise-constant prior carry-over). The window contains
		// the MAP interval, so the maximum stays pinned at 0.
		base[i] = coarse[e.IntervalOf(mids[i])]
	}
	out := &Estimator{g: gridFromMids(mids), prior: &prior{base: base, obs: e.Observations()}}
	out.refresh()
	return out
}
