package experiments

import (
	"math"
	"strings"
	"testing"

	"adaptivecast/internal/config"
	"adaptivecast/internal/topology"
)

func TestFigure1Values(t *testing.T) {
	res := Figure1(DefaultFigure1())
	if res.ID != "fig1" || len(res.Series) != 3 {
		t.Fatalf("unexpected figure: %s with %d series", res.ID, len(res.Series))
	}
	for _, s := range res.Series {
		// At α = 1 both algorithms coincide: ratio exactly 1.
		if math.Abs(s.Y[0]-1) > 1e-12 {
			t.Errorf("%s: ratio(α=1) = %v, want 1", s.Label, s.Y[0])
		}
		// The ratio decreases monotonically in α (the adaptive algorithm
		// saves more as the second path gets worse).
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] >= s.Y[i-1] {
				t.Errorf("%s: ratio not decreasing at α=%v", s.Label, s.X[i])
			}
		}
	}
	// Paper's headline: L=1e-4, α=10 → ≈ 87%% of the messages.
	last := res.Series[2]
	if last.Label != "L=0.0001" {
		t.Fatalf("series order changed: %v", last.Label)
	}
	if got := last.Y[len(last.Y)-1]; got < 0.86 || got > 0.88 {
		t.Errorf("ratio(L=1e-4, α=10) = %v, want ≈0.875", got)
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	rows := Table1()
	wantAfter := []float64{0.04, 0.12, 0.20, 0.28, 0.36}
	wantInterval := []string{"[0.0 , 0.2)", "[0.2 , 0.4)", "[0.4 , 0.6)", "[0.6 , 0.8)", "[0.8 , 1.0]"}
	if len(rows) != len(wantAfter) {
		t.Fatalf("%d rows, want %d", len(rows), len(wantAfter))
	}
	for i, r := range rows {
		if r.Interval != wantInterval[i] {
			t.Errorf("row %d interval = %q, want %q", i, r.Interval, wantInterval[i])
		}
		if math.Abs(r.BeliefBefore-0.2) > 1e-12 {
			t.Errorf("row %d before = %v, want 0.2", i, r.BeliefBefore)
		}
		if math.Abs(r.BeliefAfter-wantAfter[i]) > 1e-12 {
			t.Errorf("row %d after = %v, want %v", i, r.BeliefAfter, wantAfter[i])
		}
	}
	out := RenderTable1(rows)
	if !strings.Contains(out, "table1") || !strings.Contains(out, "0.36") {
		t.Errorf("render missing content:\n%s", out)
	}
}

func TestRender(t *testing.T) {
	res := FigureResult{
		ID: "x", Title: "T", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Label: "a", X: []float64{1, 2}, Y: []float64{3, math.NaN()}},
		},
	}
	out := res.Render()
	if !strings.Contains(out, "# x — T") || !strings.Contains(out, "n/a") {
		t.Errorf("render output wrong:\n%s", out)
	}
	empty := FigureResult{ID: "e"}
	if !strings.Contains(empty.Render(), "# e") {
		t.Error("empty render broken")
	}
}

func smallFig4Params(varyLoss bool) Figure4Params {
	return Figure4Params{
		N:              40,
		Connectivities: []int{2, 8, 14},
		Probs:          []float64{0.03},
		VaryLoss:       varyLoss,
		Graphs:         2,
		GossipRuns:     8,
		Seed:           3,
	}
}

func TestFigure4Shape(t *testing.T) {
	for _, varyLoss := range []bool{false, true} {
		res, err := Figure4(smallFig4Params(varyLoss))
		if err != nil {
			t.Fatal(err)
		}
		s := res.Series[0]
		for i, y := range s.Y {
			if y <= 0 || math.IsNaN(y) {
				t.Fatalf("varyLoss=%v: ratio[%d] = %v", varyLoss, i, y)
			}
		}
		// The paper's central claim: the adaptive advantage grows with
		// connectivity.
		if s.Y[len(s.Y)-1] <= s.Y[0] {
			t.Errorf("varyLoss=%v: ratio did not grow with connectivity: %v", varyLoss, s.Y)
		}
	}
}

func TestAdaptiveCost(t *testing.T) {
	g, err := topology.Ring(10)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := config.Uniform(g, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	cost, err := AdaptiveCost(cfg, 0, 0.9999)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 9 {
		t.Errorf("reliable-ring cost = %d, want 9 (one message per tree edge)", cost)
	}

	disc := topology.New(3)
	if _, err := disc.AddLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := AdaptiveCost(config.New(disc), 0, 0.9999); err == nil {
		t.Error("disconnected topology should fail")
	}
}

func TestMeasureConvergenceSmall(t *testing.T) {
	g, err := topology.Ring(12)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := config.Uniform(g, 0, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MeasureConvergence(truth, ConvergenceParams{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if res.MessagesPerLink <= 0 || res.Periods <= 0 {
		t.Errorf("degenerate result: %+v", res)
	}
	// messages/link ≈ 2 × periods on a ring where everyone heartbeats
	// every period (up to crash skips, absent here).
	if math.Abs(res.MessagesPerLink-2*float64(res.Periods)) > 1 {
		t.Errorf("messages/link %v inconsistent with periods %d", res.MessagesPerLink, res.Periods)
	}
}

func TestMeasureConvergenceTimeout(t *testing.T) {
	g, err := topology.Ring(12)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := config.Uniform(g, 0, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MeasureConvergence(truth, ConvergenceParams{Seed: 5, MaxPeriods: 25, CheckEvery: 25})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("cannot have converged in 25 periods at L=0.05")
	}
}

func TestFigure5Shape(t *testing.T) {
	res, err := Figure5(Figure5Params{
		N:              30,
		Connectivities: []int{2, 6},
		Probs:          []float64{0, 0.03},
		VaryLoss:       true,
		Graphs:         1,
		Seed:           7,
	})
	if err != nil {
		t.Fatal(err)
	}
	lossless, lossy := res.Series[0], res.Series[1]
	for i := range lossless.Y {
		if math.IsNaN(lossless.Y[i]) || math.IsNaN(lossy.Y[i]) {
			t.Fatal("convergence did not complete")
		}
		// Learning a lossy link takes more evidence than a perfect one.
		if lossy.Y[i] <= lossless.Y[i] {
			t.Errorf("conn=%v: lossy effort %v <= lossless %v",
				lossless.X[i], lossy.Y[i], lossless.Y[i])
		}
	}
}

func TestFigure6Shape(t *testing.T) {
	res, err := Figure6(Figure6Params{
		Sizes:  []int{40, 120},
		Graphs: 2,
		Seed:   9,
	})
	if err != nil {
		t.Fatal(err)
	}
	ring, tree := res.Series[0], res.Series[1]
	if ring.Label != "ring" || tree.Label != "tree" {
		t.Fatalf("series order changed: %v %v", ring.Label, tree.Label)
	}
	// Ring effort grows linearly with n; tree stays near constant. With a
	// 3x size increase the ring must grow and must grow faster than the
	// tree.
	ringGrowth := ring.Y[1] - ring.Y[0]
	treeGrowth := tree.Y[1] - tree.Y[0]
	if ringGrowth <= 0 {
		t.Errorf("ring effort did not grow with n: %v", ring.Y)
	}
	if treeGrowth >= ringGrowth {
		t.Errorf("tree growth %v not smaller than ring growth %v", treeGrowth, ringGrowth)
	}
}

func TestAblationAllocation(t *testing.T) {
	res, err := AblationAllocation(AblationParams{N: 30, Graphs: 3, Seed: 11, HeterogeneousLoss: true})
	if err != nil {
		t.Fatal(err)
	}
	greedy, uniform := res.Series[0], res.Series[1]
	for i := range greedy.Y {
		if greedy.Y[i] > uniform.Y[i] {
			t.Errorf("topology %d: greedy %v > uniform %v", i, greedy.Y[i], uniform.Y[i])
		}
	}
}

func TestAblationTree(t *testing.T) {
	res, err := AblationTree(AblationParams{N: 30, Graphs: 4, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	mrtS, bfsS, rndS := res.Series[0], res.Series[1], res.Series[2]
	for i := range mrtS.Y {
		// The MRT is optimal: never worse than either alternative tree.
		if mrtS.Y[i] > bfsS.Y[i]+1e-9 || mrtS.Y[i] > rndS.Y[i]+1e-9 {
			t.Errorf("topology %d: mrt %v vs bfs %v vs random %v",
				i, mrtS.Y[i], bfsS.Y[i], rndS.Y[i])
		}
	}
}

func TestAblationGossipAcks(t *testing.T) {
	res, err := AblationGossipAcks(AblationParams{N: 24, Connectivity: 8, Graphs: 2, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	withAcks, noAcks := res.Series[0], res.Series[1]
	for i := range withAcks.Y {
		if withAcks.Y[i] >= noAcks.Y[i] {
			t.Errorf("topology %d: acks did not reduce traffic (%v vs %v)",
				i, withAcks.Y[i], noAcks.Y[i])
		}
	}
}

func TestHeterogeneousAdvantageGrows(t *testing.T) {
	res, err := Heterogeneous(HeterogeneousParams{
		N:            50,
		Connectivity: 8,
		Spreads:      []float64{0, 1.0},
		Graphs:       3,
		GossipRuns:   10,
		Seed:         19,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Series[0]
	if len(s.Y) != 2 {
		t.Fatalf("series shape: %v", s)
	}
	// The paper's conjecture: more heterogeneity (same mean) → bigger
	// adaptive advantage.
	if s.Y[1] <= s.Y[0] {
		t.Errorf("ratio did not grow with spread: %v -> %v", s.Y[0], s.Y[1])
	}
}

func TestRenderChart(t *testing.T) {
	res := FigureResult{
		ID: "c", Title: "Chart",
		Series: []Series{
			{Label: "up", X: []float64{0, 1, 2}, Y: []float64{0, 1, 2}},
			{Label: "down", X: []float64{0, 1, 2}, Y: []float64{2, 1, math.NaN()}},
		},
	}
	out := res.RenderChart(30, 10)
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Errorf("marks missing:\n%s", out)
	}
	if !strings.Contains(out, "up") || !strings.Contains(out, "down") {
		t.Errorf("legend missing:\n%s", out)
	}
	// Degenerate inputs must not panic.
	empty := FigureResult{ID: "e", Series: []Series{{Label: "nan", X: []float64{1}, Y: []float64{math.NaN()}}}}
	if !strings.Contains(empty.RenderChart(0, 0), "no finite data") {
		t.Error("empty chart not handled")
	}
	flat := FigureResult{ID: "f", Series: []Series{{Label: "f", X: []float64{1, 1}, Y: []float64{3, 3}}}}
	if out := flat.RenderChart(25, 8); !strings.Contains(out, "*") {
		t.Errorf("flat chart broken:\n%s", out)
	}
}
