package bayes

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"unsafe"
)

// testGrid is an interval geometry of any U, for the oracle below.
type testGrid struct{ mid, logFail, logSucc []float64 }

// newTestGrid builds the grid of u intervals with the package grid's
// arithmetic.
func newTestGrid(u int) *testGrid {
	g := &testGrid{mid: make([]float64, u), logFail: make([]float64, u), logSucc: make([]float64, u)}
	for i := range g.mid {
		m := float64(2*i+1) / float64(2*u)
		g.mid[i], g.logFail[i], g.logSucc[i] = m, math.Log(m), math.Log(1-m)
	}
	return g
}

// packageGrid is the estimators' own grid, as a testGrid.
func packageGrid() *testGrid {
	return &testGrid{mid: grid.mid[:], logFail: grid.logFail[:], logSucc: grid.logSucc[:]}
}

// vectorEstimator is the literal Algorithm 5: U log beliefs updated in
// place on every observation and rebased to a zero maximum. It is the
// oracle the evidence-count representation is checked against.
type vectorEstimator struct {
	g      *testGrid
	logBel []float64
}

// newVectorEstimator returns the oracle on g with a uniform prior.
func newVectorEstimator(g *testGrid) *vectorEstimator {
	return &vectorEstimator{g: g, logBel: make([]float64, len(g.mid))}
}

func (v *vectorEstimator) observe(logLik []float64, factor int) {
	max := math.Inf(-1)
	for i := range v.logBel {
		v.logBel[i] += float64(factor) * logLik[i]
		if v.logBel[i] > max {
			max = v.logBel[i]
		}
	}
	for i := range v.logBel {
		v.logBel[i] -= max
	}
}

func (v *vectorEstimator) beliefs() (bel []float64, mean float64) {
	bel = make([]float64, len(v.logBel))
	var z float64
	for i, lb := range v.logBel {
		bel[i] = math.Exp(lb)
		z += bel[i]
	}
	for i := range bel {
		bel[i] /= z
		mean += bel[i] * v.g.mid[i]
	}
	return bel, mean
}

// randomRun feeds the same random evidence schedule to an estimator and
// to the oracle.
func randomRun(rng *rand.Rand, e *Estimator, v *vectorEstimator) {
	p := rng.Float64()
	for step, steps := 0, 1+rng.Intn(600); step < steps; step++ {
		factor := 1 + rng.Intn(4)
		if rng.Float64() < p {
			e.ObserveFailure(factor)
			v.observe(v.g.logFail, factor)
		} else {
			e.ObserveSuccess(factor)
			v.observe(v.g.logSucc, factor)
		}
	}
}

// TestCountsMatchIncrementalVector is the representation's correctness
// argument as a test: over random evidence schedules the posterior
// rebuilt from (successes, failures) agrees with the incrementally
// updated belief vector to rounding error — beliefs, mean and MAP.
func TestCountsMatchIncrementalVector(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for run := 0; run < 200; run++ {
		e, v := New(), newVectorEstimator(packageGrid())
		randomRun(rng, e, v)

		want, wantMean := v.beliefs()
		if d := math.Abs(e.Mean() - wantMean); d > 1e-12 {
			t.Fatalf("run %d (%d obs): mean from counts off by %v", run, e.Observations(), d)
		}
		got := e.Beliefs()
		best := 0
		for i := range want {
			if d := math.Abs(got[i] - want[i]); d > 1e-12 {
				t.Fatalf("run %d: belief[%d] from counts off by %v", run, i, d)
			}
			if d := math.Abs(e.Belief(i) - want[i]); d > 1e-12 {
				t.Fatalf("run %d: Belief(%d) off by %v", run, i, d)
			}
			if want[i] > want[best]+1e-12 {
				best = i
			}
		}
		if idx, bel := e.MAP(); math.Abs(bel-want[idx]) > 1e-12 || math.Abs(want[idx]-want[best]) > 1e-12 {
			t.Fatalf("run %d: MAP (%d, %v), oracle peaks at %d (%v)", run, idx, bel, best, want[best])
		}
	}
}

// TestRefinedCountsMatchIncrementalVector keeps the name it had when
// refined grids existed. It repeats the differential check across a
// wire hop: halfway through the schedule the estimator is rebuilt from
// its state, as a neighbour adopts it, and the rebuilt one goes on
// observing, while the oracle's vector never left.
func TestRefinedCountsMatchIncrementalVector(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for run := 0; run < 50; run++ {
		e, v := New(), newVectorEstimator(packageGrid())
		randomRun(rng, e, v)
		r, err := NewFromState(e.State())
		if err != nil {
			t.Fatal(err)
		}
		randomRun(rng, r, v)
		if _, wantMean := v.beliefs(); math.Abs(r.Mean()-wantMean) > 1e-12 {
			t.Fatalf("run %d: mean of the adopted estimator off by %v", run, math.Abs(r.Mean()-wantMean))
		}
	}
}

// TestEvidenceCountSurvivesState pins the wire bugfix at its root: a
// count state rebuilds an estimator with the same Observations(), not 0.
func TestEvidenceCountSurvivesState(t *testing.T) {
	e := New()
	e.ObserveFailure(7)
	e.ObserveSuccess(413)
	got, err := NewFromState(e.State())
	if err != nil {
		t.Fatal(err)
	}
	if got.Observations() != 420 {
		t.Errorf("Observations() = %d after the state round-trip, want 420", got.Observations())
	}
	if got.Mean() != e.Mean() {
		t.Errorf("mean changed across a count state: %v vs %v", got.Mean(), e.Mean())
	}
}

// TestEvidenceSaturates: observations past MaxEvidence are clamped, so
// every state an estimator cuts stays inside the bounds Adopt (and the
// wire decoder) put on it, however much evidence was booked.
func TestEvidenceSaturates(t *testing.T) {
	e := New()
	e.ObserveSuccess(MaxEvidence - 3)
	e.ObserveFailure(10)
	if e.Observations() != MaxEvidence {
		t.Fatalf("Observations() = %d after a clamped failure run, want %d", e.Observations(), MaxEvidence)
	}
	s := e.State()
	if s.Succ != MaxEvidence-3 || s.Fail != 3 {
		t.Fatalf("saturated state %+v, want (%d, 3)", s, MaxEvidence-3)
	}
	mean := e.Mean()
	e.ObserveSuccess(1 << 50)
	e.ObserveFailure(1)
	if e.Observations() != MaxEvidence || e.Mean() != mean {
		t.Errorf("a saturated estimator moved: %d observations, mean %v → %v", e.Observations(), mean, e.Mean())
	}
	got, err := NewFromState(s)
	if err != nil {
		t.Fatalf("a saturated state is refused: %v", err)
	}
	if got.Mean() != mean {
		t.Errorf("a saturated state rebuilds mean %v, want %v", got.Mean(), mean)
	}
}

// TestSharedEstimatorConcurrentReads is the read contract under the race
// detector: one estimator is read from two goroutines at once, each
// copying it before it mutates, and no read writes a cache.
func TestSharedEstimatorConcurrentReads(t *testing.T) {
	shared := New()
	shared.ObserveFailure(3)
	shared.ObserveSuccess(90)
	want := shared.Mean()
	var wg sync.WaitGroup
	for view := 0; view < 2; view++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if shared.Mean() != want {
					t.Error("shared estimator's mean moved under a reader")
					return
				}
				shared.MAP()
				shared.Beliefs()
				shared.State()
				mine := shared.Clone()
				mine.ObserveSuccess(1)
			}
		}()
	}
	wg.Wait()
}

func BenchmarkObserve(b *testing.B) {
	e := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%16 == 0 {
			e.ObserveFailure(1)
		} else {
			e.ObserveSuccess(1)
		}
	}
}

var sinkFloat float64

func BenchmarkMean(b *testing.B) {
	e := New()
	e.ObserveFailure(5)
	e.ObserveSuccess(200)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkFloat += e.Mean()
	}
}

var sinkEstimator *Estimator

func BenchmarkClone(b *testing.B) {
	e := New()
	e.ObserveFailure(5)
	e.ObserveSuccess(200)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkEstimator = e.Clone()
	}
}

// TestEstimatorFootprint pins the estimator at 40 bytes: views hold one
// inline per process and per link record (TestRecordFootprint in
// knowledge checks that neither it nor its State holds a pointer).
func TestEstimatorFootprint(t *testing.T) {
	if got := unsafe.Sizeof(Estimator{}); got > 40 {
		t.Errorf("an estimator is %d bytes, want <= 40", got)
	}
}
