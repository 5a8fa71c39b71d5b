package bayes

// Fixed-point dequantization for the wire v4 belief profile — the
// previous compact profile, superseded by evidence counts and kept
// decodable only. It shipped log beliefs and refined midpoints as uint16
// fixed-point codes scaled to the value's actual support:
//
//   - Log beliefs are non-positive with their maximum at 0. Mass below
//     e^BeliefFloor is statistically indistinguishable from zero, so
//     beliefs were quantized over [scale, 0] where
//     scale = max(BeliefFloor, min(logBel)) ships once per estimator as a
//     float64.
//   - Refined midpoints lie strictly inside (0,1); the first and last
//     ship exact and the interior is quantized over [first, last].
//
// Error budget: the belief step is |scale|/65535 ≤ 64/65535 ≈ 9.8e-4 in
// log space, so the posterior mean moves by well under 1e-3. The encoder
// half lives on in quant_test.go as the reference these functions are
// tested against.

const (
	// BeliefFloor is the most negative log belief the quantized profile
	// can represent. e^-64 ≈ 1.6e-28 of posterior mass — far below any
	// weight that could influence a mean at the wire's precision.
	BeliefFloor = -64.0

	// quantSteps is the fixed-point range of one uint16 code.
	quantSteps = 65535
)

// DequantizeBelief maps a fixed-point code back to its log belief for the
// block's shared scale.
func DequantizeBelief(q uint16, scale float64) float64 {
	if scale == 0 {
		return 0
	}
	return scale * float64(q) / quantSteps
}

// DequantizeMid maps a fixed-point code back to a refined-grid midpoint
// over the grid's [first, last] span.
func DequantizeMid(q uint16, first, last float64) float64 {
	return first + (last-first)*float64(q)/quantSteps
}
