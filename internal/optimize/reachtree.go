package optimize

import (
	"fmt"
	"math"

	"adaptivecast/internal/config"
	"adaptivecast/internal/mrt"
	"adaptivecast/internal/topology"
)

// ReachTree evaluates the reach function in its recursive form (Eq. 1),
// walking the tree's direct subtrees exactly as the paper defines it. The
// iterative Reach over Tree.Lambdas must agree with this function (they
// are the same quantity, Eq. 1 vs Eq. 2); tests exploit that equivalence.
// m is aligned with the tree's edge indices.
func ReachTree(t *mrt.Tree, c *config.Config, m []int) (float64, error) {
	return reachSubtree(t, c, m, t.Root())
}

func reachSubtree(t *mrt.Tree, c *config.Config, m []int, v topology.NodeID) (float64, error) {
	r := 1.0
	for _, child := range t.Children(v) {
		lam, err := c.Lambda(v, child)
		if err != nil {
			return 0, err
		}
		sub, err := reachSubtree(t, c, m, child)
		if err != nil {
			return 0, err
		}
		r *= edgeTerm(lam, m[t.EdgeOf(child)]) * sub
	}
	return r, nil
}

// PlanReach is Reach, under configuration c, of a broadcast plan in the
// form the wire carries it: parents[v] is v's parent in the tree
// (topology.None for the root and for IDs the tree leaves out) and
// copies[v] the messages that parent sends v. Under the true
// configuration it is the plan's true reach, which Eq. 1 requires to be
// at least K.
func PlanReach(parents []topology.NodeID, copies []int32, c *config.Config) (float64, error) {
	if len(copies) != len(parents) {
		return 0, fmt.Errorf("optimize: %d copy counts for %d parents", len(copies), len(parents))
	}
	lams := make([]float64, 0, len(parents))
	m := make([]int, 0, len(parents))
	for v, p := range parents {
		if p == topology.None {
			continue
		}
		lam, err := c.Lambda(p, topology.NodeID(v))
		if err != nil {
			return 0, err
		}
		lams = append(lams, lam)
		m = append(m, int(copies[v]))
	}
	return Reach(lams, m), nil
}

// AnalyticTwoPath reproduces the closed forms of Appendix A for the
// two-path example of the introduction: a typical gossip algorithm that
// splits k0 messages across a path with loss L and a path with loss αL
// reaches the destination with probability 1-(√α·L)^k0, while the adapted
// algorithm reaches it with probability 1-L^k1 using only the better path.
// It returns the message ratio k1/k0 = 0.5·log_L(α) + 1 at equal
// reliability — the curve of Figure 1.
func AnalyticTwoPath(l, alpha float64) float64 {
	return 0.5*math.Log(alpha)/math.Log(l) + 1
}

// TwoPathGossipReach is the typical-gossip reach probability of Appendix A
// after k0 messages alternate over the two paths: 1 - (√α·L)^k0.
func TwoPathGossipReach(l, alpha float64, k0 int) float64 {
	return 1 - math.Pow(math.Sqrt(alpha)*l, float64(k0))
}

// TwoPathAdaptiveReach is the adapted-algorithm reach probability of
// Appendix A after k1 messages over the more reliable path: 1 - L^k1.
func TwoPathAdaptiveReach(l float64, k1 int) float64 {
	return 1 - math.Pow(l, float64(k1))
}
