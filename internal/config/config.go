// Package config models the failure configuration C from the paper:
// a crash probability P_i per process and a message-loss probability L_x
// per link. Probabilities are stored densely, aligned with the node IDs
// and link indices of a topology.Graph, so hot paths never touch maps.
//
// The package also centralizes the paper's reliability arithmetic:
// the per-edge success probability (1-P_u)(1-L_{u,v})(1-P_v) used to build
// Maximum Reliability Trees, and its complement λ used by the reach
// function and the optimize() allocator.
package config

import (
	"fmt"
	"math"
	"slices"

	"adaptivecast/internal/topology"
)

// Config is the failure configuration C = (P_1..P_n, L_1..L_|Λ|) for one
// topology. The zero value is unusable; use New or Uniform.
type Config struct {
	graph *topology.Graph
	crash []float64 // indexed by NodeID
	loss  []float64 // indexed by dense link index
}

// New returns a configuration over g with all probabilities zero
// (perfectly reliable system).
func New(g *topology.Graph) *Config {
	c := new(Config)
	c.Reset(g)
	return c
}

// Reset re-aligns c with g at all probabilities zero, what New(g) returns,
// keeping the storage of its two vectors.
func (c *Config) Reset(g *topology.Graph) {
	c.graph = g
	c.crash = slices.Grow(c.crash[:0], g.NumNodes())[:g.NumNodes()]
	c.loss = slices.Grow(c.loss[:0], g.NumLinks())[:g.NumLinks()]
	clear(c.crash)
	clear(c.loss)
}

// Uniform returns a configuration over g where every process crashes with
// probability p and every link loses messages with probability l. This is
// the paper's evaluation setting ("all processes have the same crash
// probability P and all links have the same loss probability L").
func Uniform(g *topology.Graph, p, l float64) (*Config, error) {
	if err := validProb(p); err != nil {
		return nil, fmt.Errorf("config: crash probability: %w", err)
	}
	if err := validProb(l); err != nil {
		return nil, fmt.Errorf("config: loss probability: %w", err)
	}
	c := New(g)
	for i := range c.crash {
		c.crash[i] = p
	}
	for i := range c.loss {
		c.loss[i] = l
	}
	return c, nil
}

// Graph returns the topology this configuration is aligned with.
func (c *Config) Graph() *topology.Graph { return c.graph }

// Crash returns P_id, the crash probability of process id.
func (c *Config) Crash(id topology.NodeID) float64 { return c.crash[id] }

// SetCrash sets P_id.
func (c *Config) SetCrash(id topology.NodeID, p float64) error {
	if err := validProb(p); err != nil {
		return fmt.Errorf("config: crash probability of %d: %w", id, err)
	}
	c.crash[id] = p
	return nil
}

// Loss returns L for the link with the given dense index.
func (c *Config) Loss(linkIdx int) float64 { return c.loss[linkIdx] }

// LossBetween returns L for the link between a and b. It returns an error
// if no such link exists.
func (c *Config) LossBetween(a, b topology.NodeID) (float64, error) {
	idx := c.graph.LinkIndex(a, b)
	if idx < 0 {
		return 0, fmt.Errorf("config: no link between %d and %d", a, b)
	}
	return c.loss[idx], nil
}

// SetLoss sets L for the link with the given dense index.
func (c *Config) SetLoss(linkIdx int, l float64) error {
	if err := validProb(l); err != nil {
		return fmt.Errorf("config: loss probability of link %d: %w", linkIdx, err)
	}
	if linkIdx < 0 || linkIdx >= len(c.loss) {
		return fmt.Errorf("config: link index %d out of range [0,%d)", linkIdx, len(c.loss))
	}
	c.loss[linkIdx] = l
	return nil
}

// SetLossBetween sets L for the link between a and b.
func (c *Config) SetLossBetween(a, b topology.NodeID, l float64) error {
	idx := c.graph.LinkIndex(a, b)
	if idx < 0 {
		return fmt.Errorf("config: no link between %d and %d", a, b)
	}
	return c.SetLoss(idx, l)
}

// EdgeReliability returns the probability that a single message sent from
// u to v over their direct link is received and processed:
// (1-P_u) * (1-L_{u,v}) * (1-P_v). This is the weight maximized by the
// Maximum Reliability Tree (Appendix B of the paper).
//
// The multiplication order is canonicalized (lower node ID first) so the
// result is bit-identical regardless of argument order; the MRT agreement
// property (all processes build the same tree from the same knowledge)
// depends on this determinism.
func (c *Config) EdgeReliability(u, v topology.NodeID) (float64, error) {
	loss, err := c.LossBetween(u, v)
	if err != nil {
		return 0, err
	}
	if u > v {
		u, v = v, u
	}
	return (1 - c.crash[u]) * (1 - loss) * (1 - c.crash[v]), nil
}

// Lambda returns λ for the edge from pred to child:
// λ = 1 - (1-P_pred)(1-L)(1-P_child), the probability that one
// transmission over the edge fails to be received and processed.
func (c *Config) Lambda(pred, child topology.NodeID) (float64, error) {
	r, err := c.EdgeReliability(pred, child)
	if err != nil {
		return 0, err
	}
	return 1 - r, nil
}

// Grow re-syncs the configuration's dense state with a graph that gained
// nodes and/or links since construction (a membership epoch change): new
// crash entries start at probability 0 and new link entries at loss 0,
// exactly like New. Link *removals* must be mirrored with RemoveLinkAt
// before Grow, or the index alignment is lost. The live node refills a
// configuration per replan (knowledge.View.EstimatedConfigInto), so
// Grow/RemoveLinkAt serve long-lived ground-truth configurations — the
// simulator-side membership work tracked on the ROADMAP; the alignment
// contract is pinned by TestGrowAndRemoveLinkAtMirrorGraph.
func (c *Config) Grow() {
	for len(c.crash) < c.graph.NumNodes() {
		c.crash = append(c.crash, 0)
	}
	for len(c.loss) < c.graph.NumLinks() {
		c.loss = append(c.loss, 0)
	}
}

// RemoveLinkAt mirrors topology.Graph.RemoveLink's swap-removal on the
// dense loss slice: the last entry moves into the freed slot. Call it with
// the removedIdx the graph returned, immediately after the graph mutation.
func (c *Config) RemoveLinkAt(removedIdx int) error {
	last := len(c.loss) - 1
	if removedIdx < 0 || removedIdx > last {
		return fmt.Errorf("config: link index %d out of range [0,%d]", removedIdx, last)
	}
	c.loss[removedIdx] = c.loss[last]
	c.loss = c.loss[:last]
	return nil
}

// Clone returns a deep copy of the configuration (sharing the graph, which
// is treated as immutable once experiments start).
func (c *Config) Clone() *Config {
	out := &Config{
		graph: c.graph,
		crash: make([]float64, len(c.crash)),
		loss:  make([]float64, len(c.loss)),
	}
	copy(out.crash, c.crash)
	copy(out.loss, c.loss)
	return out
}

// MaxAbsDiff returns the largest absolute difference between the crash and
// loss entries of c and other. It is used by convergence checks that
// compare an approximated configuration to the ground truth. The two
// configurations must be aligned with the same topology.
func (c *Config) MaxAbsDiff(other *Config) (float64, error) {
	if len(c.crash) != len(other.crash) || len(c.loss) != len(other.loss) {
		return 0, fmt.Errorf("config: shape mismatch (%d,%d) vs (%d,%d)",
			len(c.crash), len(c.loss), len(other.crash), len(other.loss))
	}
	max := 0.0
	for i := range c.crash {
		if d := math.Abs(c.crash[i] - other.crash[i]); d > max {
			max = d
		}
	}
	for i := range c.loss {
		if d := math.Abs(c.loss[i] - other.loss[i]); d > max {
			max = d
		}
	}
	return max, nil
}

func validProb(p float64) error {
	if math.IsNaN(p) || p < 0 || p > 1 {
		return fmt.Errorf("probability %v outside [0,1]", p)
	}
	return nil
}
