package optimize

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"adaptivecast/internal/config"
	"adaptivecast/internal/mrt"
	"adaptivecast/internal/topology"
)

func TestReachBasics(t *testing.T) {
	// Single edge: r = 1 - λ^m.
	if got := Reach([]float64{0.5}, []int{3}); math.Abs(got-0.875) > 1e-12 {
		t.Errorf("Reach = %v, want 0.875", got)
	}
	// Perfect edge reaches with probability 1 from one message.
	if got := Reach([]float64{0}, []int{1}); got != 1 {
		t.Errorf("Reach(λ=0) = %v, want 1", got)
	}
	// Broken edge never reaches.
	if got := Reach([]float64{1}, []int{100}); got != 0 {
		t.Errorf("Reach(λ=1) = %v, want 0", got)
	}
	// Zero messages on an edge means the subtree is never reached.
	if got := Reach([]float64{0.1}, []int{0}); got != 0 {
		t.Errorf("Reach(m=0) = %v, want 0", got)
	}
	// Product across independent edges.
	got := Reach([]float64{0.5, 0.5}, []int{1, 1})
	if math.Abs(got-0.25) > 1e-12 {
		t.Errorf("Reach = %v, want 0.25", got)
	}
	// Empty tree (single process) is trivially reached.
	if got := Reach(nil, nil); got != 1 {
		t.Errorf("Reach(empty) = %v, want 1", got)
	}
}

func TestLogReachAgreesWithReach(t *testing.T) {
	lams := []float64{0.1, 0.3, 0.05, 0.7}
	m := []int{2, 3, 1, 5}
	want := math.Log(Reach(lams, m))
	if got := LogReach(lams, m); math.Abs(got-want) > 1e-9 {
		t.Errorf("LogReach = %v, want %v", got, want)
	}
}

func TestGreedySingleEdge(t *testing.T) {
	// λ=0.1, K=0.99985 → need λ^m ≤ 1.5e-4 → m = 4 (m=3 leaves 1e-3).
	// The target sits strictly between the m=3 and m=4 reach values so the
	// expectation is robust to floating-point rounding at the boundary.
	m, err := Greedy([]float64{0.1}, 0.99985, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m[0] != 4 {
		t.Errorf("m = %v, want [4]", m)
	}
}

func TestGreedyReachesK(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(30)
		lams := make([]float64, n)
		for i := range lams {
			lams[i] = rng.Float64() * 0.9
		}
		k := 0.9 + rng.Float64()*0.0999
		m, err := Greedy(lams, k, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Termination is decided in log space; allow one ulp-scale slack
		// when re-checking with the linear-space product.
		if r := Reach(lams, m); r < k*(1-1e-12) {
			t.Errorf("trial %d: reach %v < K %v", trial, r, k)
		}
	}
}

func TestGreedyMinimality(t *testing.T) {
	// Removing any single message must drop reach below K; otherwise the
	// allocation is not minimal.
	lams := []float64{0.2, 0.05, 0.4, 0.4, 0.01}
	const k = 0.999
	m, err := Greedy(lams, k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for j := range m {
		if m[j] <= 1 {
			continue // every edge needs at least one message
		}
		m[j]--
		if Reach(lams, m) >= k {
			t.Errorf("allocation not tight: removing a message from edge %d keeps reach ≥ K", j)
		}
		m[j]++
	}
}

// randomLambdas draws n edge failure probabilities: from a continuous
// range, or from three levels so that most gains tie and the lower-edge
// tie-break decides, with some edges at λ = 0 (which never enter the heap).
func randomLambdas(rng *rand.Rand, n int) []float64 {
	levels := []float64{0.05, 0.2, 0.6}
	tied := rng.Intn(2) == 0
	lams := make([]float64, n)
	for i := range lams {
		switch {
		case rng.Intn(8) == 0:
			lams[i] = 0
		case tied:
			lams[i] = levels[rng.Intn(len(levels))]
		default:
			lams[i] = rng.Float64() * 0.8
		}
	}
	return lams
}

// gain is the multiplicative improvement of r from one more message on
// an edge carrying m: (1-λ^(m+1))/(1-λ^m) (Eq. 6).
func gain(lam float64, m int) float64 {
	return edgeTerm(lam, m+1) / edgeTerm(lam, m)
}

// GreedyNaive is the literal Algorithm 2 of the paper: start from
// ~m = (1,...,1) and repeatedly add one message to the edge maximizing
// r(~m+~u_j)/r(~m) until r(~m) ≥ K. It is O(total·n) and is the
// executable specification that Greedy is tested against.
//
// The reach value is accumulated in log space with exactly the same
// floating-point operations as Greedy, so the two implementations differ
// only in how they select the best edge (linear scan vs heap) and are
// therefore bit-identical in their results.
func GreedyNaive(lambdas []float64, k float64, opts Options) ([]int, error) {
	if err := checkArgs(lambdas, k); err != nil {
		return nil, err
	}
	n := len(lambdas)
	m := make([]int, n)
	for j := range m {
		m[j] = 1
	}
	if k <= 0 || n == 0 {
		return m, nil
	}
	logK := math.Log(k)
	var logR float64
	for _, lam := range lambdas {
		logR += math.Log(edgeTerm(lam, 1))
	}
	budget := opts.maxTotal()
	total := n
	for logR < logK {
		best, bestGain := -1, 1.0
		for j, lam := range lambdas {
			if g := gain(lam, m[j]); g > bestGain {
				best, bestGain = j, g
			}
		}
		if best < 0 {
			return nil, ErrUnreachable
		}
		logR += math.Log(gain(lambdas[best], m[best]))
		m[best]++
		total++
		if total > budget {
			return nil, fmt.Errorf("%w (total > %d)", ErrBudget, budget)
		}
	}
	return m, nil
}

// budgetNaive is GreedyBudget by linear scan: the oracle for the heap's
// selection order in the dual problem.
func budgetNaive(lams []float64, budget int) []int {
	m := make([]int, len(lams))
	for j := range m {
		m[j] = 1
	}
	for spent := len(lams); spent < budget; spent++ {
		best, bestGain := -1, 0.0
		for j, lam := range lams {
			if g := gain(lam, m[j]); lam > 0 && (best < 0 || g > bestGain) {
				best, bestGain = j, g
			}
		}
		if best < 0 {
			break
		}
		m[best]++
	}
	return m
}

// TestGreedyMatchesNaive: the heap, which carries each edge's last
// numerator over as its next denominator, picks edge for edge what the
// literal Algorithm 2 picks computing both terms afresh — on trees up to
// 200 edges, with forced ties and λ = 0 edges, at every K the experiments
// use — and GreedyBudget picks what a linear scan picks.
func TestGreedyMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	trials := 100
	if testing.Short() {
		trials = 25
	}
	ks := []float64{0.5, 0.9, 0.99, 0.9999}
	for trial := 0; trial < trials; trial++ {
		lams := randomLambdas(rng, 1+rng.Intn(200))
		k := ks[trial%len(ks)]
		fast, err := Greedy(lams, k, Options{})
		if err != nil {
			t.Fatal(err)
		}
		naive, err := GreedyNaive(lams, k, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for j := range fast {
			if fast[j] != naive[j] {
				t.Fatalf("trial %d (K=%v): allocations differ at edge %d of %d: heap %d, naive %d", trial, k, j, len(lams), fast[j], naive[j])
			}
		}
		budget := Total(fast) + rng.Intn(len(lams)+1)
		dual, r, err := GreedyBudget(lams, budget)
		if err != nil {
			t.Fatal(err)
		}
		want := budgetNaive(lams, budget)
		for j := range dual {
			if dual[j] != want[j] {
				t.Fatalf("trial %d (budget %d): dual allocations differ at edge %d of %d: heap %d, scan %d", trial, budget, j, len(lams), dual[j], want[j])
			}
		}
		if r != Reach(lams, want) {
			t.Fatalf("trial %d: GreedyBudget reports reach %v, its allocation has %v", trial, r, Reach(lams, want))
		}
	}
}

// TestAllocsGreedy pins the allocator at its result and its heap.
func TestAllocsGreedy(t *testing.T) {
	lams := randomLambdas(rand.New(rand.NewSource(9)), 127)
	if got := testing.AllocsPerRun(50, func() {
		if _, err := Greedy(lams, 0.9999, Options{}); err != nil {
			t.Fatal(err)
		}
	}); got != 2 {
		t.Errorf("Greedy over 127 edges allocated %.0f times, want 2", got)
	}
}

var sinkTotal int

// BenchmarkGreedy allocates retransmissions over a tree of 32 and of 128
// processes at the default K, on the λ range a lossy cluster's estimates
// fall in: what every replan pays after its tree is built.
func BenchmarkGreedy(b *testing.B) {
	for _, edges := range []int{31, 127} {
		b.Run(fmt.Sprintf("edges=%d", edges), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(edges)))
			lams := make([]float64, edges)
			for i := range lams {
				lams[i] = 0.02 + 0.2*rng.Float64()
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := Greedy(lams, 0.9999, Options{})
				if err != nil {
					b.Fatal(err)
				}
				sinkTotal += m[0]
			}
		})
	}
}

// BenchmarkOptimizeGreedyNaive runs the literal Algorithm 2 on the
// 99-edge MRT of a 100-process, 8-connected random graph at K = 0.9999,
// for comparison with the heap-accelerated Greedy.
func BenchmarkOptimizeGreedyNaive(b *testing.B) {
	g, err := topology.RandomConnected(100, 8, rand.New(rand.NewSource(7)))
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := config.Uniform(g, 0.01, 0.03)
	if err != nil {
		b.Fatal(err)
	}
	tree, err := mrt.Build(g, cfg, 0)
	if err != nil {
		b.Fatal(err)
	}
	lams, err := tree.Lambdas(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GreedyNaive(lams, 0.9999, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestGreedyOptimal verifies Theorem 2 empirically: the greedy total equals
// the exhaustive minimum on small instances.
func TestGreedyOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(4)
		lams := make([]float64, n)
		for i := range lams {
			lams[i] = 0.05 + rng.Float64()*0.6
		}
		k := 0.9 + rng.Float64()*0.09
		greedy, err := Greedy(lams, k, Options{})
		if err != nil {
			t.Fatal(err)
		}
		best, ok := Exhaustive(lams, k, Total(greedy)+2)
		if !ok {
			t.Fatalf("trial %d: exhaustive found nothing within greedy total", trial)
		}
		if Total(best) != Total(greedy) {
			t.Errorf("trial %d: greedy total %d != optimal %d (λ=%v K=%v)",
				trial, Total(greedy), Total(best), lams, k)
		}
	}
}

func TestGreedyErrors(t *testing.T) {
	if _, err := Greedy([]float64{0.5}, 1.0, Options{}); err == nil {
		t.Error("K=1 should fail")
	}
	if _, err := Greedy([]float64{0.5}, math.NaN(), Options{}); err == nil {
		t.Error("K=NaN should fail")
	}
	if _, err := Greedy([]float64{1.0}, 0.5, Options{}); !errors.Is(err, ErrUnreachable) {
		t.Errorf("λ=1 err = %v, want ErrUnreachable", err)
	}
	if _, err := Greedy([]float64{-0.1}, 0.5, Options{}); err == nil {
		t.Error("negative λ should fail")
	}
	if _, err := Greedy([]float64{0.99999}, 0.999999, Options{MaxTotal: 50}); !errors.Is(err, ErrBudget) {
		t.Errorf("budget err = %v, want ErrBudget", err)
	}
}

func TestGreedyTrivialTargets(t *testing.T) {
	m, err := Greedy([]float64{0.3, 0.3}, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m[0] != 1 || m[1] != 1 {
		t.Errorf("K=0 allocation = %v, want all ones", m)
	}
	m, err = Greedy(nil, 0.99, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 0 {
		t.Errorf("empty tree allocation = %v, want empty", m)
	}
}

func TestGreedyBudget(t *testing.T) {
	lams := []float64{0.3, 0.1}
	m, r, err := GreedyBudget(lams, 5)
	if err != nil {
		t.Fatal(err)
	}
	if Total(m) != 5 {
		t.Errorf("total = %d, want 5", Total(m))
	}
	if got := Reach(lams, m); math.Abs(got-r) > 1e-12 {
		t.Errorf("reported reach %v != actual %v", r, got)
	}
	// Exhaustively check no 5-message allocation beats it.
	for a := 1; a <= 4; a++ {
		alt := []int{a, 5 - a}
		if Reach(lams, alt) > r+1e-12 {
			t.Errorf("allocation %v (reach %v) beats greedy %v (reach %v)", alt, Reach(lams, alt), m, r)
		}
	}
	if _, _, err := GreedyBudget(lams, 1); err == nil {
		t.Error("budget below edge count should fail")
	}
}

// TestPrimalDualEquivalence checks Lemma 3's equivalence: the minimal total
// from Greedy(K) equals the smallest budget M for which GreedyBudget(M)
// attains reach ≥ K.
func TestPrimalDualEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(6)
		lams := make([]float64, n)
		for i := range lams {
			lams[i] = 0.05 + rng.Float64()*0.5
		}
		k := 0.9 + rng.Float64()*0.09
		m, err := Greedy(lams, k, Options{})
		if err != nil {
			t.Fatal(err)
		}
		total := Total(m)
		_, rAt, err := GreedyBudget(lams, total)
		if err != nil {
			t.Fatal(err)
		}
		if rAt < k {
			t.Errorf("trial %d: dual reach %v at budget %d below K=%v", trial, rAt, total, k)
		}
		if total > n {
			_, rBelow, err := GreedyBudget(lams, total-1)
			if err != nil {
				t.Fatal(err)
			}
			if rBelow >= k {
				t.Errorf("trial %d: budget %d already reaches K — primal not minimal", trial, total-1)
			}
		}
	}
}

func TestUniformAblation(t *testing.T) {
	// Heterogeneous edges: uniform allocation must waste messages.
	lams := []float64{0.5, 0.01, 0.01, 0.01}
	const k = 0.999
	uni, err := Uniform(lams, k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	grd, err := Greedy(lams, k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if Reach(lams, uni) < k {
		t.Error("uniform allocation misses K")
	}
	if Total(uni) <= Total(grd) {
		t.Errorf("uniform total %d should exceed greedy total %d on heterogeneous edges",
			Total(uni), Total(grd))
	}
	if _, err := Uniform([]float64{0.999}, 0.99999999, Options{MaxTotal: 10}); !errors.Is(err, ErrBudget) {
		t.Errorf("uniform budget err = %v, want ErrBudget", err)
	}
}

func TestAnalyticTwoPath(t *testing.T) {
	// α = 1: both paths equal, ratio 1.
	if got := AnalyticTwoPath(0.01, 1); math.Abs(got-1) > 1e-12 {
		t.Errorf("ratio(α=1) = %v, want 1", got)
	}
	// Paper's headline number: α=10, L=0.0001 → about 87% of the messages.
	got := AnalyticTwoPath(0.0001, 10)
	if got < 0.86 || got > 0.88 {
		t.Errorf("ratio(L=1e-4, α=10) = %v, want ≈0.875", got)
	}
	// Lossier base path → bigger savings (smaller ratio).
	if AnalyticTwoPath(0.01, 10) >= AnalyticTwoPath(0.0001, 10) {
		t.Error("savings should grow as the base path gets lossier")
	}
}

func TestTwoPathReachFormulas(t *testing.T) {
	// Consistency: at the k1/k0 ratio from the closed form, both reach
	// probabilities agree.
	const l, alpha = 0.01, 4.0
	const k0 = 10
	k1 := AnalyticTwoPath(l, alpha) * k0
	gossip := TwoPathGossipReach(l, alpha, k0)
	adaptive := 1 - math.Pow(l, k1)
	if math.Abs(gossip-adaptive) > 1e-9 {
		t.Errorf("reach mismatch at closed-form ratio: gossip %v vs adaptive %v", gossip, adaptive)
	}
	if TwoPathAdaptiveReach(l, 3) != 1-math.Pow(l, 3) {
		t.Error("TwoPathAdaptiveReach formula wrong")
	}
}

// Property: greedy allocations always reach K, always keep every edge at
// ≥ 1 message, and heap and naive versions agree, for random instances.
func TestGreedyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		lams := make([]float64, n)
		for i := range lams {
			lams[i] = rng.Float64() * 0.85
		}
		k := 0.5 + rng.Float64()*0.49
		fast, err := Greedy(lams, k, Options{})
		if err != nil {
			return false
		}
		naive, err := GreedyNaive(lams, k, Options{})
		if err != nil {
			return false
		}
		if Total(fast) != Total(naive) {
			return false
		}
		for _, v := range fast {
			if v < 1 {
				return false
			}
		}
		return Reach(lams, fast) >= k*(1-1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: reach is monotone — adding a message to any edge never lowers
// it (isotonicity, Lemma 4's substrate).
func TestReachMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		lams := make([]float64, n)
		m := make([]int, n)
		for i := range lams {
			lams[i] = rng.Float64()
			m[i] = 1 + rng.Intn(5)
		}
		base := Reach(lams, m)
		for j := range m {
			m[j]++
			if Reach(lams, m) < base-1e-12 {
				return false
			}
			m[j]--
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the marginal gain on an edge is non-increasing in the current
// count (Lemma 4, isotonic gain).
func TestGainIsotonicProperty(t *testing.T) {
	f := func(lamRaw uint16, mRaw uint8) bool {
		lam := float64(lamRaw) / 65536 // [0, 1)
		if lam == 0 {
			lam = 0.5
		}
		m := 1 + int(mRaw%40)
		return gain(lam, m) >= gain(lam, m+1)-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestTwoPathMonteCarlo cross-checks Appendix A's closed forms by direct
// simulation of the two-path example: k0 messages alternating between a
// path with loss L and a path with loss αL (typical gossip), versus k1
// messages on the better path (adapted algorithm).
func TestTwoPathMonteCarlo(t *testing.T) {
	const (
		l      = 0.3 // large losses keep the Monte-Carlo variance useful
		alpha  = 2.0
		k0     = 6
		trials = 200000
	)
	rng := rand.New(rand.NewSource(99))

	gossipHits := 0
	for trial := 0; trial < trials; trial++ {
		arrived := false
		for m := 0; m < k0; m++ {
			loss := l
			if m%2 == 1 {
				loss = alpha * l
			}
			if rng.Float64() >= loss {
				arrived = true
			}
		}
		if arrived {
			gossipHits++
		}
	}
	gotGossip := float64(gossipHits) / trials
	wantGossip := TwoPathGossipReach(l, alpha, k0)
	if math.Abs(gotGossip-wantGossip) > 0.005 {
		t.Errorf("gossip reach MC %v vs closed form %v", gotGossip, wantGossip)
	}

	const k1 = 5
	adaptiveHits := 0
	for trial := 0; trial < trials; trial++ {
		for m := 0; m < k1; m++ {
			if rng.Float64() >= l {
				adaptiveHits++
				break
			}
		}
	}
	gotAdaptive := float64(adaptiveHits) / trials
	wantAdaptive := TwoPathAdaptiveReach(l, k1)
	if math.Abs(gotAdaptive-wantAdaptive) > 0.005 {
		t.Errorf("adaptive reach MC %v vs closed form %v", gotAdaptive, wantAdaptive)
	}
}
