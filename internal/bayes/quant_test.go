package bayes

import (
	"math"
	"math/rand"
	"testing"
)

// The v4 encoder half, kept as the reference the dequantizers are tested
// against (the runtime only decodes the quantized profile).

// BeliefQuantScale returns the shared scale for a log-belief block: the
// smallest log belief, clamped to BeliefFloor, and to ≤ 0 so the zero
// state (fresh estimator, all beliefs 0) yields scale 0.
func BeliefQuantScale(logBeliefs []float64) float64 {
	scale := 0.0
	for _, lb := range logBeliefs {
		if lb < scale {
			scale = lb
		}
	}
	if scale < BeliefFloor {
		scale = BeliefFloor
	}
	return scale
}

// QuantizeBelief maps one log belief to its fixed-point code for the
// given scale. Values below scale clamp to it (the BeliefFloor cut);
// values above 0 clamp to 0.
func QuantizeBelief(lb, scale float64) uint16 {
	if scale == 0 {
		return 0
	}
	if lb < scale {
		lb = scale
	}
	if lb > 0 {
		lb = 0
	}
	return uint16(math.Round(lb / scale * quantSteps))
}

// QuantizeMid maps a refined-grid midpoint to its fixed-point code over
// the grid's [first, last] span.
func QuantizeMid(m, first, last float64) uint16 {
	if last <= first {
		return 0
	}
	if m < first {
		m = first
	}
	if m > last {
		m = last
	}
	return uint16(math.Round((m - first) / (last - first) * quantSteps))
}

func TestBeliefQuantScale(t *testing.T) {
	if s := BeliefQuantScale(nil); s != 0 {
		t.Errorf("empty block scale = %v, want 0", s)
	}
	if s := BeliefQuantScale([]float64{0, 0, 0}); s != 0 {
		t.Errorf("all-zero block scale = %v, want 0", s)
	}
	if s := BeliefQuantScale([]float64{-1.5, -0.25, 0}); s != -1.5 {
		t.Errorf("scale = %v, want the block minimum -1.5", s)
	}
	if s := BeliefQuantScale([]float64{-500, -2}); s != BeliefFloor {
		t.Errorf("scale = %v, want clamp to BeliefFloor %v", s, BeliefFloor)
	}
}

func TestQuantizeBeliefBounds(t *testing.T) {
	const scale = -10.0
	if q := QuantizeBelief(0, scale); q != 0 {
		t.Errorf("log belief 0 -> code %d, want 0", q)
	}
	if q := QuantizeBelief(scale, scale); q != quantSteps {
		t.Errorf("block minimum -> code %d, want %d", q, quantSteps)
	}
	// Clamps: below scale and above zero both stay in range.
	if q := QuantizeBelief(-1e6, scale); q != quantSteps {
		t.Errorf("below-scale belief -> code %d, want clamp to %d", q, quantSteps)
	}
	if q := QuantizeBelief(0.5, scale); q != 0 {
		t.Errorf("positive belief -> code %d, want clamp to 0", q)
	}
	// Zero scale (fresh estimator): everything is code 0, value 0.
	if q := QuantizeBelief(-3, 0); q != 0 {
		t.Errorf("zero-scale quantize -> %d, want 0", q)
	}
	if v := DequantizeBelief(quantSteps, 0); v != 0 {
		t.Errorf("zero-scale dequantize -> %v, want 0", v)
	}
}

// TestBeliefQuantStepBound pins the error budget the wire profile is
// built on: one quantization step is at most |BeliefFloor|/65535 in log
// space, and a belief round-trip never moves more than half a step.
func TestBeliefQuantStepBound(t *testing.T) {
	maxStep := -BeliefFloor / quantSteps
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		scale := -rng.Float64() * -BeliefFloor
		lb := scale * rng.Float64()
		got := DequantizeBelief(QuantizeBelief(lb, scale), scale)
		if err := math.Abs(got - lb); err > maxStep/2+1e-12 {
			t.Fatalf("round-trip error %v exceeds half-step %v (lb=%v scale=%v)", err, maxStep/2, lb, scale)
		}
	}
}

// TestBeliefQuantProjection pins the multi-hop stability property:
// quantizing an already-dequantized block reproduces the exact codes and
// the exact scale, so an estimate that crosses several v4 links carries
// only the first hop's quantization error.
func TestBeliefQuantProjection(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(100)
		block := make([]float64, n)
		for i := range block {
			block[i] = -rng.Float64() * 80 // some below BeliefFloor
		}
		block[rng.Intn(n)] = 0 // rebased maximum
		scale := BeliefQuantScale(block)

		codes := make([]uint16, n)
		decoded := make([]float64, n)
		for i, lb := range block {
			codes[i] = QuantizeBelief(lb, scale)
			decoded[i] = DequantizeBelief(codes[i], scale)
		}
		scale2 := BeliefQuantScale(decoded)
		if scale2 != scale {
			t.Fatalf("trial %d: dequantized block re-derives scale %v, want %v", trial, scale2, scale)
		}
		for i, d := range decoded {
			if q2 := QuantizeBelief(d, scale2); q2 != codes[i] {
				t.Fatalf("trial %d: code %d re-quantizes to %d (value %v)", trial, codes[i], q2, d)
			}
		}
	}
}

func TestQuantizeMidRoundTrip(t *testing.T) {
	const first, last = 0.0125, 0.9875
	step := (last - first) / quantSteps
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		m := first + (last-first)*rng.Float64()
		got := DequantizeMid(QuantizeMid(m, first, last), first, last)
		if err := math.Abs(got - m); err > step/2+1e-12 {
			t.Fatalf("midpoint round-trip error %v exceeds half-step %v", err, step/2)
		}
	}
	// Endpoints map to the exact codes, out-of-span values clamp, and a
	// collapsed span degrades to code 0.
	if q := QuantizeMid(first, first, last); q != 0 {
		t.Errorf("first midpoint -> code %d, want 0", q)
	}
	if q := QuantizeMid(last, first, last); q != quantSteps {
		t.Errorf("last midpoint -> code %d, want %d", q, quantSteps)
	}
	if q := QuantizeMid(-1, first, last); q != 0 {
		t.Errorf("below-span midpoint -> code %d, want 0", q)
	}
	if q := QuantizeMid(2, first, last); q != quantSteps {
		t.Errorf("above-span midpoint -> code %d, want %d", q, quantSteps)
	}
	if q := QuantizeMid(0.5, 0.5, 0.5); q != 0 {
		t.Errorf("collapsed span -> code %d, want 0", q)
	}
}
