// Package optimize implements the paper's message-count allocator
// (Sections 3.2–3.3): given the per-edge failure probabilities λ_j of a
// Maximum Reliability Tree and a target reliability K, it finds the
// retransmission vector ~m minimizing the total number of messages
// Σ_j m[j] subject to the reach constraint
//
//	r(~m) = Π_j (1 - λ_j^m[j]) ≥ K                        (Eq. 3)
//
// Greedy is the production implementation: because the marginal gain of
// one more message on an edge is isotonic (Lemma 4) and independent of the
// other edges, a max-heap of per-edge gains yields exactly the greedy
// choices of Algorithm 2 in O(total·log n) instead of O(total·n). The
// literal Algorithm 2 lives in the tests as GreedyNaive, the executable
// specification Greedy is property-tested against, as it is against
// Exhaustive.
package optimize

import (
	"errors"
	"fmt"
	"math"
)

var (
	// ErrUnreachable means some edge has λ = 1 (or K is otherwise not
	// attainable): no number of retransmissions can reach all processes
	// with the requested probability.
	ErrUnreachable = errors.New("optimize: target reliability unattainable (λ=1 edge)")
	// ErrBudget means the allocator hit its safety cap before reaching K.
	ErrBudget = errors.New("optimize: message budget exhausted before reaching K")
)

// DefaultMaxTotal caps the total number of messages the allocator may
// assign before giving up; it only exists to turn pathological inputs
// (λ extremely close to 1) into errors instead of near-infinite loops.
const DefaultMaxTotal = 1 << 22

// Reach evaluates the reach function in its iterative form (Eq. 2): the
// probability that every process in the tree receives at least one
// message, given per-edge failure probabilities lambdas and per-edge
// message counts m. Both slices are aligned with the tree's edge indices.
func Reach(lambdas []float64, m []int) float64 {
	r := 1.0
	for j, lam := range lambdas {
		r *= edgeTerm(lam, m[j])
	}
	return r
}

// LogReach returns log(r(~m)); preferable when trees are large enough for
// the product to underflow.
func LogReach(lambdas []float64, m []int) float64 {
	var lr float64
	for j, lam := range lambdas {
		lr += math.Log(edgeTerm(lam, m[j]))
	}
	return lr
}

// edgeTerm returns 1 - λ^m, the probability that at least one of m
// transmissions over an edge with failure probability λ succeeds.
func edgeTerm(lam float64, m int) float64 {
	if m <= 0 {
		return 0
	}
	switch {
	case lam <= 0:
		return 1
	case lam >= 1:
		return 0
	}
	return 1 - math.Pow(lam, float64(m))
}

// Total returns Σ_j m[j], the objective value c(~m) of Eq. 3.
func Total(m []int) int {
	t := 0
	for _, v := range m {
		t += v
	}
	return t
}

// Options tunes the allocators.
type Options struct {
	// MaxTotal caps the total message count; 0 means DefaultMaxTotal.
	MaxTotal int
}

func (o Options) maxTotal() int {
	if o.MaxTotal <= 0 {
		return DefaultMaxTotal
	}
	return o.MaxTotal
}

// gainItem is one edge in the greedy max-heap. gain is the multiplicative
// improvement of r when adding one more message to the edge:
// (1-λ^(m+1))/(1-λ^m)  (Eq. 6). next is that numerator, 1-λ^(m+1): it is
// the denominator of the edge's following gain, so a step pays one Pow.
type gainItem struct {
	gain float64
	next float64
	edge int
}

// before is the heap order: higher gain first, ties to the lower edge
// (deterministic, matches GreedyNaive).
func (a gainItem) before(b gainItem) bool {
	if a.gain != b.gain {
		return a.gain > b.gain
	}
	return a.edge < b.edge
}

// gainHeap is a binary max-heap of edges under before. It is typed rather
// than a container/heap so no comparison or swap goes through an
// interface; the sift-down makes the comparisons container/heap's made,
// in their order.
type gainHeap []gainItem

// down restores the heap order below slot i.
func (h gainHeap) down(i int) {
	it := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(it) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = it
}

// fillGainHeap heaps, in h's storage, every edge that can still gain
// (λ > 0) at m = 1.
func fillGainHeap(h gainHeap, lambdas []float64) gainHeap {
	if cap(h) < len(lambdas) {
		h = make(gainHeap, 0, len(lambdas))
	}
	h = h[:0]
	for j, lam := range lambdas {
		if lam > 0 {
			next := edgeTerm(lam, 2)
			h = append(h, gainItem{gain: next / edgeTerm(lam, 1), next: next, edge: j})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	return h
}

// step gives the top edge, now at m messages, its next gain and re-heaps.
func (h gainHeap) step(lam float64, m int) {
	top := &h[0]
	next := edgeTerm(lam, m+1)
	top.gain, top.next = next/top.next, next
	h.down(0)
}

// Greedy solves the optimization problem of Eq. 3 with the greedy strategy
// of Algorithm 2, accelerated with a max-heap over per-edge gains. It
// returns the per-edge message counts (aligned with lambdas) whose total
// is minimal subject to Reach(lambdas, m) ≥ K.
//
// K must be in (0, 1); K ≤ 0 returns the minimal all-ones vector.
func Greedy(lambdas []float64, k float64, opts Options) ([]int, error) {
	var a Allocator
	return a.Greedy(lambdas, k, opts)
}

// Allocator keeps Greedy's heap and result between calls, for a caller
// that allocates often and keeps neither (a replan copies the result
// out). The zero value is ready to use.
type Allocator struct {
	m []int
	h gainHeap
}

// Greedy is Greedy on a's storage. The vector it returns is a's, and the
// next call overwrites it.
func (a *Allocator) Greedy(lambdas []float64, k float64, opts Options) ([]int, error) {
	if err := checkArgs(lambdas, k); err != nil {
		return nil, err
	}
	n := len(lambdas)
	if cap(a.m) < n {
		a.m = make([]int, n)
	}
	m := a.m[:n]
	for j := range m {
		m[j] = 1
	}
	if k <= 0 || n == 0 {
		return m, nil
	}

	// Track reach in log space so large trees cannot underflow.
	logK := math.Log(k)
	var logR float64
	for _, lam := range lambdas {
		logR += math.Log(edgeTerm(lam, 1))
	}
	a.h = fillGainHeap(a.h, lambdas)
	h := a.h

	total := n
	budget := opts.maxTotal()
	for logR < logK {
		if len(h) == 0 {
			// Every remaining gain is 1: reach cannot improve further.
			return nil, ErrUnreachable
		}
		it := h[0]
		logR += math.Log(it.gain)
		m[it.edge]++
		total++
		if total > budget {
			return nil, fmt.Errorf("%w (total > %d)", ErrBudget, budget)
		}
		h.step(lambdas[it.edge], m[it.edge])
	}
	return m, nil
}

// GreedyBudget solves the dual problem of Eq. 5 (Appendix D): maximize
// r(~m) subject to Σ m[j] ≤ M. It returns the allocation and its reach.
// M < len(lambdas) is an error since every edge needs at least one
// message.
func GreedyBudget(lambdas []float64, budget int) ([]int, float64, error) {
	n := len(lambdas)
	if budget < n {
		return nil, 0, fmt.Errorf("optimize: budget %d below the %d-edge minimum", budget, n)
	}
	for j, lam := range lambdas {
		if err := checkLambda(j, lam); err != nil {
			return nil, 0, err
		}
	}
	m := make([]int, n)
	for j := range m {
		m[j] = 1
	}
	h := fillGainHeap(nil, lambdas)
	for spent := n; spent < budget && len(h) > 0; spent++ {
		edge := h[0].edge
		m[edge]++
		h.step(lambdas[edge], m[edge])
	}
	return m, Reach(lambdas, m), nil
}

// Uniform is the ablation baseline: every edge gets the same count, the
// smallest uniform count reaching K. The gap between Total(Uniform) and
// Total(Greedy) measures the value of per-edge allocation.
func Uniform(lambdas []float64, k float64, opts Options) ([]int, error) {
	if err := checkArgs(lambdas, k); err != nil {
		return nil, err
	}
	n := len(lambdas)
	m := make([]int, n)
	budget := opts.maxTotal()
	for c := 1; ; c++ {
		for j := range m {
			m[j] = c
		}
		if Reach(lambdas, m) >= k {
			return m, nil
		}
		if c*n > budget {
			return nil, fmt.Errorf("%w (uniform %d×%d)", ErrBudget, c, n)
		}
	}
}

// Exhaustive finds a provably minimal-total allocation by trying every
// total from len(lambdas) upward and, for each, maximizing reach with
// GreedyBudget... except that greedy is exactly what we want to verify.
// So instead it enumerates all allocations with the given total via
// depth-first search. It is exponential and intended only for tests on
// small inputs (≤ ~5 edges, small totals). The boolean result reports
// whether a feasible allocation was found within maxTotal.
func Exhaustive(lambdas []float64, k float64, maxTotal int) ([]int, bool) {
	n := len(lambdas)
	if n == 0 {
		return []int{}, k <= 0
	}
	for total := n; total <= maxTotal; total++ {
		m := make([]int, n)
		if found := exhaustiveAssign(lambdas, k, m, 0, total); found != nil {
			return found, true
		}
	}
	return nil, false
}

// exhaustiveAssign distributes `remaining` messages over edges [j, n),
// each getting at least 1, and returns the first allocation reaching k.
func exhaustiveAssign(lambdas []float64, k float64, m []int, j, remaining int) []int {
	n := len(lambdas)
	if j == n-1 {
		m[j] = remaining
		if Reach(lambdas, m) >= k {
			out := make([]int, n)
			copy(out, m)
			return out
		}
		return nil
	}
	// Leave at least one message for each later edge.
	for take := 1; take <= remaining-(n-1-j); take++ {
		m[j] = take
		if found := exhaustiveAssign(lambdas, k, m, j+1, remaining-take); found != nil {
			return found
		}
	}
	return nil
}

func checkArgs(lambdas []float64, k float64) error {
	if k >= 1 {
		return fmt.Errorf("optimize: K=%v must be < 1", k)
	}
	if math.IsNaN(k) {
		return errors.New("optimize: K is NaN")
	}
	for j, lam := range lambdas {
		if err := checkLambda(j, lam); err != nil {
			return err
		}
		if lam >= 1 && k > 0 {
			return fmt.Errorf("%w: edge %d", ErrUnreachable, j)
		}
	}
	return nil
}

func checkLambda(j int, lam float64) error {
	if math.IsNaN(lam) || lam < 0 || lam > 1 {
		return fmt.Errorf("optimize: λ[%d]=%v outside [0,1]", j, lam)
	}
	return nil
}
