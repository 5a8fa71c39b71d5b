package node

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"adaptivecast/internal/bayes"
	"adaptivecast/internal/config"
	"adaptivecast/internal/dataplane"
	"adaptivecast/internal/optimize"
	"adaptivecast/internal/raceflag"
	"adaptivecast/internal/topology"
)

// auditWindow is a span of periods, both ends included, whose plans the
// Eq. 1 audit scores.
type auditWindow struct {
	name     string
	from, to int
}

// auditScores is what one window's plans read.
type auditScores struct {
	trueReach []float64 // every plan's reach under the true configuration
	lossOnly  int       // plans below K under the true loss and the view's crash estimates
	copies    int       // Σ m[j] over the plans
	edges     int       // tree edges over the plans
	// worst explains the plan of lowest true reach below K, one row per
	// tree edge; empty while no plan is below K.
	worst      string
	worstReach float64
}

func (s *auditScores) below(k float64) int {
	n := 0
	for _, r := range s.trueReach {
		if r < k {
			n++
		}
	}
	return n
}

// String reports min / p10 / p50 of the true reach, the plans below K
// under it and under the loss-only configuration, and the copies per
// tree edge.
func (s *auditScores) String() string {
	r := slices.Sorted(slices.Values(s.trueReach))
	at := func(q float64) float64 { return r[int(q*float64(len(r)-1))] }
	n := len(r)
	return fmt.Sprintf("true_reach min %.6f p10 %.6f p50 %.6f; below K %d/%d (%.3f); loss-only below K %d/%d (%.3f); copies per tree edge %.2f",
		r[0], at(0.1), at(0.5), s.below(dataplane.DefaultK), n, float64(s.below(dataplane.DefaultK))/float64(n),
		s.lossOnly, n, float64(s.lossOnly)/float64(n), float64(s.copies)/float64(s.edges))
}

// runEq1Audit steps 24 protocol cores over lossy links with no crashes
// and scores the plans of origins 0, 5, 11 and 17, every 5 periods
// inside each window, against Eq. 1: the probability that a broadcast
// reaches every process, under the true configuration, must be at least
// K. Each plan comes from the core's own replan, so the wire, the
// deltas, the horizons and the heartbeat plane are all in what it
// scores. Every frame is dropped with its link's true loss, drawn from
// one seeded source in a fixed delivery order, so a run's figures repeat
// exactly.
func runEq1Audit(t *testing.T, seed int64, windows []auditWindow) []*auditScores {
	t.Helper()
	const n = 24
	origins := []topology.NodeID{0, 5, 11, 17}
	rng := rand.New(rand.NewSource(seed))
	g, err := topology.RandomConnected(n, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := config.Uniform(g, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Links() {
		if err := truth.SetLoss(i, 0.01+0.19*rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	cluster := newStepped(t, g, 0, nil)
	cluster.rng = rng
	for i, l := range g.Links() {
		cluster.setLoss(l.A, l.B, truth.Loss(i))
	}

	// score has c plan through its own replan, and scores the plan under the
	// truth, and under the true loss with c's crash estimates. A plan
	// below K that is the window's worst so far is explained from the
	// view it was planned from.
	score := func(c *Core, s *auditScores, period int) {
		t.Helper()
		lossOnly := truth.Clone()
		p, _ := c.plane.Replan()
		if p.Err != nil {
			t.Fatalf("period %d: origin %d has no plan: %v", period, c.ID(), p.Err)
		}
		for v := 0; v < n; v++ {
			mean, _ := c.view.CrashEstimate(topology.NodeID(v))
			if err := lossOnly.SetCrash(topology.NodeID(v), mean); err != nil {
				t.Fatal(err)
			}
		}
		r, err := optimize.PlanReach(p.Parents, p.Alloc, truth)
		if err == nil && r < dataplane.DefaultK && (s.worst == "" || r < s.worstReach) {
			s.worst, s.worstReach = explainPlan(c, p, truth, r, period), r
		}
		if err != nil {
			t.Fatal(err)
		}
		lr, err := optimize.PlanReach(p.Parents, p.Alloc, lossOnly)
		if err != nil {
			t.Fatal(err)
		}
		s.trueReach = append(s.trueReach, r)
		if lr < dataplane.DefaultK {
			s.lossOnly++
		}
		s.copies += p.Planned
		s.edges += p.Edges
	}

	scores := make([]*auditScores, len(windows))
	for i := range scores {
		scores[i] = new(auditScores)
	}
	last := windows[len(windows)-1].to
	for period := 1; period <= last; period++ {
		cluster.ticks(1, false)
		for i, w := range windows {
			if period >= w.from && period <= w.to && period%5 == 0 {
				for _, o := range origins {
					score(cluster.nodes[o].Core, scores[i], period)
				}
			}
		}
	}
	return scores
}

// explainPlan writes one row per tree edge parent → child of c's plan p,
// whose true reach is reach: the λ c estimated and the true λ (Eq. 1's
// per-copy miss probability), the (succ, fail) evidence of the view's
// loss record for the link and of its crash records for both endpoints,
// the copies m[j], and the edge's share of the miss — ln(1 − λ^m[j]) over
// ln reach, which sums to 1 over the tree and is its share of 1 − reach
// while the misses are small.
func explainPlan(c *Core, p *dataplane.Plan, truth *config.Config, reach float64, period int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "origin %d at period %d: true reach %.6f, %d copies over %d tree edges", c.ID(), period, reach, p.Planned, p.Edges)
	fmt.Fprintf(&b, "\n      %-8s %8s %8s %13s %13s %13s %4s %7s", "edge", "est λ", "true λ", "loss (s,f)", "crash p (s,f)", "crash c (s,f)", "m", "share")
	for v, parent := range p.Parents {
		child := topology.NodeID(v)
		if parent == topology.None {
			continue
		}
		lam, err := truth.Lambda(parent, child)
		if err != nil {
			fmt.Fprintf(&b, "\n      %d→%d: %v", parent, child, err)
			continue
		}
		crashP, _ := c.view.CrashEstimate(parent)
		crashC, _ := c.view.CrashEstimate(child)
		link := topology.NewLink(parent, child)
		loss, _, _ := c.view.LossEstimate(link)
		var lossRec bayes.State
		if e := c.view.LinkEstimator(link); e != nil {
			lossRec = e.State()
		}
		recP, recC := c.view.ProcEstimator(parent).State(), c.view.ProcEstimator(child).State()
		m := int(p.Alloc[v])
		share := math.Log(1-math.Pow(lam, float64(m))) / math.Log(reach)
		fmt.Fprintf(&b, "\n      %-8s %8.5f %8.5f %13s %13s %13s %4d %7.4f",
			fmt.Sprintf("%d→%d", parent, child), 1-(1-crashP)*(1-loss)*(1-crashC), lam,
			fmt.Sprintf("(%d,%d)", lossRec.Succ, lossRec.Fail), fmt.Sprintf("(%d,%d)", recP.Succ, recP.Fail),
			fmt.Sprintf("(%d,%d)", recC.Succ, recC.Fail), m, share)
	}
	return b.String()
}

// TestEq1Audit runs the audit on two seeds over an early window, while
// the estimates converge, and a late one. Only the late window is gated:
// there no plan may fall below K under the true configuration. The early
// window misses K in some plans on both seeds, and the loss-only column
// (the same plans scored with the view's crash estimates in place of the
// true crash probabilities, which are 0) misses it in most, in both
// windows: the plans' margin over K is what those estimates add. Both
// are reported, not gated. -short runs the early window only. Under the
// race detector it runs several times slower and adds nothing: it steps
// cores, with no concurrency at all.
func TestEq1Audit(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the audit's figures are the same without the race detector, and it runs six times slower under it")
	}
	windows := []auditWindow{{"early", 100, 600}, {"late", 1900, 2400}}
	if testing.Short() {
		windows = windows[:1]
	}
	for _, seed := range []int64{7, 11} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			var report strings.Builder
			for i, s := range runEq1Audit(t, seed, windows) {
				w := windows[i]
				fmt.Fprintf(&report, "\n  periods %d–%d: %v", w.from, w.to, s)
				if w.name == "late" && s.below(dataplane.DefaultK) > 0 {
					t.Errorf("periods %d–%d: %d of %d plans reach below K = %v under the true configuration; the worst, %s",
						w.from, w.to, s.below(dataplane.DefaultK), len(s.trueReach), dataplane.DefaultK, s.worst)
				}
			}
			t.Logf("Eq. 1 audit, seed %d:%s", seed, report.String())
		})
	}
}
