// Package experiments contains one driver per table and figure of the
// paper's evaluation (Section 5 plus the introduction's Figure 1 and the
// Bayesian example of Table 1), and the ablation studies of ablations.go
// (greedy vs uniform allocation, the MRT vs BFS and random trees, the
// reference gossip's ack overhead). Each driver returns a FigureResult
// whose series mirror the rows/curves the paper plots; cmd/repro renders
// them as text and bench_test.go wraps each driver in a benchmark.
//
// Experiment configurations default to the paper's parameters (100
// processes, connectivity 2..20, K = 0.9999) but every driver accepts
// scaled-down parameters so tests and benchmarks stay fast.
package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"adaptivecast/internal/config"
	"adaptivecast/internal/optimize"
	"adaptivecast/internal/topology"
)

// Series is one labeled curve: Y[i] measured at X[i].
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// FigureResult is a reproduced table or figure.
type FigureResult struct {
	ID     string // "fig1", "fig4a", ... "table1"
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Render formats the result as an aligned text table, one column per
// series, matching the axes of the paper's plot.
func (f FigureResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s — %s\n", f.ID, f.Title)
	fmt.Fprintf(&b, "# y: %s\n", f.YLabel)
	fmt.Fprintf(&b, "%-12s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %14s", s.Label)
	}
	b.WriteByte('\n')
	if len(f.Series) == 0 {
		return b.String()
	}
	for i := range f.Series[0].X {
		fmt.Fprintf(&b, "%-12.4g", f.Series[0].X[i])
		for _, s := range f.Series {
			if i < len(s.Y) {
				if math.IsNaN(s.Y[i]) {
					fmt.Fprintf(&b, " %14s", "n/a")
				} else {
					fmt.Fprintf(&b, " %14.4g", s.Y[i])
				}
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 1 — adaptive versus traditional gossip on the two-path example.
// ---------------------------------------------------------------------------

// Figure1Params configures the analytic Figure 1 reproduction.
type Figure1Params struct {
	// Losses are the L curves (paper: 1e-2, 1e-3, 1e-4).
	Losses []float64
	// AlphaMax sweeps α from 1 to AlphaMax (paper: 10).
	AlphaMax int
}

// DefaultFigure1 matches the paper's Figure 1.
func DefaultFigure1() Figure1Params {
	return Figure1Params{Losses: []float64{1e-2, 1e-3, 1e-4}, AlphaMax: 10}
}

// Figure1 reproduces Figure 1: the message ratio k1/k0 between an
// environment-adapted algorithm and a typical gossip algorithm on the
// two-path topology, as a function of the reliability ratio α, for several
// base loss probabilities L (closed form of Appendix A).
func Figure1(p Figure1Params) FigureResult {
	res := FigureResult{
		ID:     "fig1",
		Title:  "Adaptive versus traditional gossip (two independent paths)",
		XLabel: "alpha",
		YLabel: "k1/k0 at equal reliability",
	}
	for _, l := range p.Losses {
		s := Series{Label: fmt.Sprintf("L=%g", l)}
		for a := 1; a <= p.AlphaMax; a++ {
			s.X = append(s.X, float64(a))
			s.Y = append(s.Y, optimize.AnalyticTwoPath(l, float64(a)))
		}
		res.Series = append(res.Series, s)
	}
	return res
}

// ---------------------------------------------------------------------------
// Table 1 — Bayesian belief adaptation after a failure suspicion.
// ---------------------------------------------------------------------------

// Table1Row is one probability interval of Table 1.
type Table1Row struct {
	Interval     string
	BeliefBefore float64
	BeliefAfter  float64
}

// Table1 reproduces Table 1: U = 5 intervals with uniform prior beliefs
// (case a) and the posterior after one failure suspicion (case b). The
// estimator's U is the paper's 100, so the five rows come straight from
// Algorithm 5's update: one failure multiplies each uniform belief by
// its interval's midpoint P_F|B[u] = (2u+1)/2U, and renormalizing leaves
// belief ∝ midpoint.
func Table1() []Table1Row {
	const u = 5
	var mids [u]float64
	var z float64
	for i := range mids {
		mids[i] = float64(2*i+1) / (2 * u)
		z += mids[i]
	}
	rows := make([]Table1Row, u)
	for i := range rows {
		bracket := ")"
		if i == u-1 {
			bracket = "]"
		}
		rows[i] = Table1Row{
			Interval:     fmt.Sprintf("[%.1f , %.1f%s", float64(i)/u, float64(i+1)/u, bracket),
			BeliefBefore: 1.0 / u,
			BeliefAfter:  mids[i] / z,
		}
	}
	return rows
}

// RenderTable1 formats Table 1 like the paper.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("# table1 — Adapting failure beliefs after a suspicion (U=5)\n")
	fmt.Fprintf(&b, "%-4s %-14s %-10s %-10s\n", "u", "P_F|B[u]", "before", "after")
	for i, r := range rows {
		fmt.Fprintf(&b, "%-4d %-14s %-10.2f %-10.2f\n", i+1, r.Interval, r.BeliefBefore, r.BeliefAfter)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Shared helpers.
// ---------------------------------------------------------------------------

// uniformConfig builds the evaluation configuration: every process crashes
// with probability p, every link loses with probability l.
func uniformConfig(g *topology.Graph, p, l float64) (*config.Config, error) {
	return config.Uniform(g, p, l)
}

// connectedGraph draws a random connected graph with the requested
// links-per-process connectivity.
func connectedGraph(n, conn int, rng *rand.Rand) (*topology.Graph, error) {
	return topology.RandomConnected(n, conn, rng)
}
