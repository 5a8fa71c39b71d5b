package bayes

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"unsafe"
)

// vectorEstimator is the literal Algorithm 5: U log beliefs updated in
// place on every observation and rebased to a zero maximum. It is the
// oracle the evidence-count representation is checked against.
type vectorEstimator struct {
	g      *grid
	logBel []float64
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
		u := 2 + rng.Intn(2*DefaultIntervals)
		e := MustNew(u)
		v := &vectorEstimator{g: e.g, logBel: make([]float64, u)}
		randomRun(rng, e, v)

		want, wantMean := v.beliefs()
		if d := math.Abs(e.Mean() - wantMean); d > 1e-12 {
			t.Fatalf("run %d (U=%d, %d obs): mean from counts off by %v", run, u, e.Observations(), d)
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
// refined grids existed. It repeats the differential check on an
// estimator adopted from a raw log-belief vector, whose counts build on a
// non-uniform prior.
func TestRefinedCountsMatchIncrementalVector(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for run := 0; run < 50; run++ {
		r := rawPrior(t, 1+rng.Intn(50), 500+rng.Intn(500))
		v := &vectorEstimator{g: r.g, logBel: append([]float64(nil), r.prior.base...)}
		randomRun(rng, r, v)
		_, wantMean := v.beliefs()
		if d := math.Abs(r.Mean() - wantMean); d > 1e-12 {
			t.Fatalf("run %d: raw-prior mean from counts off by %v", run, d)
		}
	}
}

// TestEvidenceCountSurvivesState pins the wire bugfix at its root: a
// count state rebuilds an estimator with the same Observations(), not 0.
func TestEvidenceCountSurvivesState(t *testing.T) {
	e := MustNew(DefaultIntervals)
	e.ObserveFailure(7)
	e.ObserveSuccess(413)
	s := e.State()
	if !s.IsCounts() {
		t.Fatal("an observed-only estimator's state is not a count state")
	}
	s.g = nil // as decoded off the wire
	got, err := NewFromState(s)
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

// TestRawStateSummarizesIdentically pins what makes the raw wire layout
// an exact fallback: the materialized vector rebuilds an estimator with
// bit-identical mean and MAP, and materializing that estimator again
// reproduces the vector (a multi-hop relay re-encodes the same bytes).
func TestRawStateSummarizesIdentically(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for run := 0; run < 100; run++ {
		e := MustNew(DefaultIntervals)
		e.ObserveFailure(rng.Intn(200))
		e.ObserveSuccess(rng.Intn(2000))
		if run%3 == 0 {
			e = rawPrior(t, rng.Intn(200), rng.Intn(2000))
			e.ObserveSuccess(1 + rng.Intn(100))
		}
		s := e.State()
		raw := State{Intervals: s.Intervals, LogBeliefs: s.AppendLogBeliefs(nil)}
		got, err := NewFromState(raw)
		if err != nil {
			t.Fatal(err)
		}
		if got.Mean() != e.Mean() {
			t.Fatalf("run %d: mean %v via the raw vector, %v from counts", run, got.Mean(), e.Mean())
		}
		gi, gb := got.MAP()
		if ei, eb := e.MAP(); gi != ei || gb != eb {
			t.Fatalf("run %d: MAP (%d,%v) via the raw vector, (%d,%v) from counts", run, gi, gb, ei, eb)
		}
		hop := got.State()
		again := hop.AppendLogBeliefs(nil)
		for i := range again {
			if math.Float64bits(again[i]) != math.Float64bits(raw.LogBeliefs[i]) {
				t.Fatalf("run %d: second hop changed log belief %d", run, i)
			}
		}
	}
}

// TestSharedEstimatorConcurrentReads is the read contract under the race
// detector: one estimator is read from two goroutines at once, each
// copying it before it mutates, and no read writes a cache.
func TestSharedEstimatorConcurrentReads(t *testing.T) {
	shared := MustNew(DefaultIntervals)
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
				s := shared.State()
				s.AppendLogBeliefs(nil)
				mine := shared.Clone()
				mine.ObserveSuccess(1)
			}
		}()
	}
	wg.Wait()
}

func BenchmarkObserve(b *testing.B) {
	e := MustNew(DefaultIntervals)
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
	e := MustNew(DefaultIntervals)
	e.ObserveFailure(5)
	e.ObserveSuccess(200)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkFloat += e.Mean()
	}
}

var sinkEstimator *Estimator

func BenchmarkClone(b *testing.B) {
	e := MustNew(DefaultIntervals)
	e.ObserveFailure(5)
	e.ObserveSuccess(200)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkEstimator = e.Clone()
	}
}

// TestEstimatorFootprint pins the estimator at 56 bytes: views hold one
// inline per process and per link record.
func TestEstimatorFootprint(t *testing.T) {
	if got := unsafe.Sizeof(Estimator{}); got > 56 {
		t.Errorf("an estimator is %d bytes, want <= 56", got)
	}
}
