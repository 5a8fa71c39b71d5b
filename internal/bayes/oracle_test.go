package bayes

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"adaptivecast/internal/raceflag"
)

// fullGrid is the posterior summary computed the long way, over every
// interval: a strict-> scan for the MAP (so ties break toward the lower
// interval), then U exponentials summed in index order. It is the
// reference the estimator's peak climb and underflow window must match
// bit for bit.
func fullGrid(succ, fail int) (mean float64, mapIdx int, mapBel float64) {
	e := Estimator{succ: succ, fail: fail}
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
	return m / z, best, 1 / z
}

// checkFullGrid compares the estimator built from (succ, fail) with
// fullGrid, bit for bit.
func checkFullGrid(t *testing.T, succ, fail int) {
	t.Helper()
	e, err := NewFromState(State{Succ: succ, Fail: fail})
	if err != nil {
		t.Fatal(err)
	}
	wantMean, wantIdx, wantBel := fullGrid(succ, fail)
	idx, bel := e.MAP()
	if math.Float64bits(e.Mean()) != math.Float64bits(wantMean) || idx != wantIdx ||
		math.Float64bits(bel) != math.Float64bits(wantBel) {
		t.Fatalf("(succ %d, fail %d): mean %v, MAP (%d, %v); full grid %v, (%d, %v)",
			succ, fail, e.Mean(), idx, bel, wantMean, wantIdx, wantBel)
	}
}

// TestRefreshMatchesFullGrid checks the posterior mean, the MAP interval
// and the MAP belief against the full-grid computation on every
// (succ, fail) in [0, 1000]² and on 2·10⁵ log-uniform pairs up to
// MaxEvidence; -short and the race detector check a strided subset.
func TestRefreshMatchesFullGrid(t *testing.T) {
	side, stride, random := 1000, 1, 200_000
	if testing.Short() || raceflag.Enabled {
		stride, random = 37, 5_000
	}
	for succ := 0; succ <= side; succ += stride {
		for fail := 0; fail <= side; fail += stride {
			checkFullGrid(t, succ, fail)
		}
	}
	rng := rand.New(rand.NewSource(45))
	logUniform := func() int { return int(math.Exp(rng.Float64()*math.Log(MaxEvidence+1))) - 1 }
	for range random {
		succ := logUniform()
		checkFullGrid(t, succ, min(logUniform(), MaxEvidence-succ))
	}
}

var sinkMean float64

// BenchmarkRefresh times rebuilding an estimator from a state, one
// refresh of its posterior mean, at 40, 400 and 5,000 observations with
// one failure in twenty: the more evidence, the narrower the peak and the
// fewer intervals whose weight does not underflow.
func BenchmarkRefresh(b *testing.B) {
	for _, n := range []int{40, 400, 5000} {
		b.Run(fmt.Sprintf("obs=%d", n), func(b *testing.B) {
			s := State{Succ: n - n/20, Fail: n / 20}
			var e Estimator
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := e.Adopt(s); err != nil {
					b.Fatal(err)
				}
				sinkMean += e.Mean()
			}
		})
	}
}
