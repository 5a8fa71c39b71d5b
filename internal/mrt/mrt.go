// Package mrt implements the paper's Maximum Reliability Tree (Appendix B):
// a spanning tree of the topology containing the most reliable paths,
// computed with a modified Prim's algorithm that maximizes the per-edge
// success probability (1-P_u)(1-L_{u,v})(1-P_v).
//
// The MRT is the substrate of the optimal broadcast algorithm (Algorithm 1):
// the sender roots the tree at itself, the optimize() allocator assigns a
// retransmission count to every tree edge, and messages flow strictly down
// the tree. Appendix C proves that among all propagation graphs, some
// spanning tree is optimal, and that the maximum spanning tree under this
// edge weight needs the fewest messages.
//
// Tie-breaking is deterministic (lexicographic by endpoint IDs), so two
// processes that agree on the topology and configuration build the same
// tree for the same root — the agreement property Section 3.1 relies on.
package mrt

import (
	"errors"
	"fmt"

	"adaptivecast/internal/config"
	"adaptivecast/internal/topology"
)

// ErrDisconnected is returned when the topology has no spanning tree
// reaching every process from the requested root.
var ErrDisconnected = errors.New("mrt: topology is not connected")

// Tree is a Maximum Reliability Tree rooted at the broadcasting process.
// Non-root nodes are ordered in the deterministic order Prim added them;
// edge i of the tree is the link from Parent(EdgeChild(i)) to EdgeChild(i).
type Tree struct {
	root     topology.NodeID
	parent   []topology.NodeID // parent[v] = predecessor of v; None for root
	children [][]topology.NodeID
	order    []topology.NodeID // insertion order, root first
	edgeOf   []int             // edgeOf[v] = edge index of the link leading to v; -1 for root
}

// cross is a candidate edge from the grown tree S to a node outside S.
type cross struct {
	rel  float64 // (1-P_u)(1-L)(1-P_v)
	from topology.NodeID
	to   topology.NodeID
}

// before is the heap order: higher reliability first, then lexicographic
// (from, to) for determinism. No two candidates share (from, to), so the
// order is total and the pop sequence does not depend on the heap's shape.
func (e cross) before(o cross) bool {
	if e.rel != o.rel {
		return e.rel > o.rel
	}
	if e.from != o.from {
		return e.from < o.from
	}
	return e.to < o.to
}

// crossHeap is a binary max-heap of candidate edges under before. It is
// typed rather than a container/heap so a push or pop boxes nothing.
type crossHeap []cross

func (h *crossHeap) push(e cross) {
	s := append(*h, e)
	for i := len(s) - 1; i > 0; {
		up := (i - 1) / 2
		if !s[i].before(s[up]) {
			break
		}
		s[i], s[up] = s[up], s[i]
		i = up
	}
	*h = s
}

func (h *crossHeap) pop() cross {
	s := *h
	top, last := s[0], len(s)-1
	s[0] = s[last]
	s = s[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && s[c+1].before(s[c]) {
			c++
		}
		if !s[c].before(s[i]) {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	*h = s
	return top
}

// Build computes mrt(G, C) rooted at root into fresh storage; see
// Builder.Build.
func Build(g *topology.Graph, c *config.Config, root topology.NodeID) (*Tree, error) {
	return new(Builder).Build(g, c, root)
}

// Builder owns the storage of the tree it builds — the parent, order and
// edge vectors, the child lists — and of Prim's in-tree marks and
// candidate heap, and reuses all of it on the next Build. The zero value
// is ready to use; a Builder is not safe for concurrent use.
type Builder struct {
	tree   Tree
	inTree []bool
	heap   crossHeap
}

// Build computes mrt(G, C) rooted at root using the modified Prim's
// algorithm of Appendix B. The tree spans every *active* process of g —
// tombstoned processes (departed members of earlier epochs) keep their
// slot in the parent vector with parent None but are neither visited nor
// required for connectivity. It returns ErrDisconnected if some active
// process is unreachable from root. The returned tree lives in b and is
// valid until b's next Build: a caller that keeps any of it past that
// point copies it out first (Parents does).
func (b *Builder) Build(g *topology.Graph, c *config.Config, root topology.NodeID) (*Tree, error) {
	n := g.NumNodes()
	if n == 0 {
		return nil, errors.New("mrt: empty topology")
	}
	if !g.Active(root) {
		return nil, fmt.Errorf("mrt: root %d out of range [0,%d) or removed", root, n)
	}
	if c.Graph() != g {
		return nil, errors.New("mrt: configuration is not aligned with the topology")
	}

	t := &b.tree
	t.root = root
	if cap(t.parent) < n {
		t.parent = make([]topology.NodeID, n)
		t.order = make([]topology.NodeID, 0, n)
		t.edgeOf = make([]int, n)
		b.inTree = make([]bool, n)
	}
	if cap(t.children) < n {
		// Grown in place: the child lists b already has keep their storage.
		t.children = append(t.children[:cap(t.children)], make([][]topology.NodeID, n-cap(t.children))...)
	}
	t.parent, t.children, t.order, t.edgeOf = t.parent[:n], t.children[:n], t.order[:0], t.edgeOf[:n]
	inTree := b.inTree[:n]
	for i := range t.parent {
		t.parent[i] = topology.None
		t.children[i] = t.children[i][:0]
		t.edgeOf[i] = -1
		inTree[i] = false
	}

	// A link becomes a candidate at most once: when its first endpoint
	// joins the tree. So the heap never outgrows this capacity, and h below
	// stays on b.heap's array.
	if cap(b.heap) < g.NumLinks() {
		b.heap = make(crossHeap, 0, g.NumLinks())
	}
	h := b.heap[:0]
	add := func(v topology.NodeID) {
		inTree[v] = true
		t.order = append(t.order, v)
		nbs := g.Neighbors(v)
		linkIdxs := g.NeighborLinks(v)
		for i, w := range nbs {
			if inTree[w] {
				continue
			}
			// Canonical multiplication order (lower ID first) keeps the
			// weight bit-identical with config.EdgeReliability and across
			// traversal directions, which the determinism guarantee needs.
			lo, hi := v, w
			if lo > hi {
				lo, hi = hi, lo
			}
			rel := (1 - c.Crash(lo)) * (1 - c.Loss(linkIdxs[i])) * (1 - c.Crash(hi))
			h.push(cross{rel: rel, from: v, to: w})
		}
	}

	add(root)
	for len(t.order) < g.NumActive() {
		if len(h) == 0 {
			return nil, ErrDisconnected
		}
		e := h.pop()
		if inTree[e.to] {
			continue // stale entry; a better edge already claimed e.to
		}
		t.parent[e.to] = e.from
		t.children[e.from] = append(t.children[e.from], e.to)
		t.edgeOf[e.to] = len(t.order) - 1 // edge index = position among non-root nodes
		add(e.to)
	}
	return t, nil
}

// Root returns the broadcasting process the tree is rooted at.
func (t *Tree) Root() topology.NodeID { return t.root }

// NumNodes returns the size of the tree's ID space (the parent vector
// length). In a grown cluster this can exceed the spanned node count:
// tombstoned IDs keep a slot with parent None.
func (t *Tree) NumNodes() int { return len(t.parent) }

// NumEdges returns the number of tree links — one per spanned non-root
// node (|Π_active|-1, not the ID-space size).
func (t *Tree) NumEdges() int { return len(t.order) - 1 }

// Parent returns pred(v), the process that precedes v on the path from the
// root (None for the root itself).
func (t *Tree) Parent(v topology.NodeID) topology.NodeID { return t.parent[v] }

// Children returns the direct subtree roots of v (the roots of S_v in the
// paper's notation). The returned slice is shared; callers must not modify
// it.
func (t *Tree) Children(v topology.NodeID) []topology.NodeID { return t.children[v] }

// Order returns the deterministic node ordering, root first. The returned
// slice is shared; callers must not modify it.
func (t *Tree) Order() []topology.NodeID { return t.order }

// EdgeChild returns the child endpoint of tree edge i (edges are indexed
// 0..NumEdges-1 in insertion order).
func (t *Tree) EdgeChild(i int) topology.NodeID { return t.order[i+1] }

// EdgeOf returns the edge index of the link leading to v, or -1 for the
// root.
func (t *Tree) EdgeOf(v topology.NodeID) int { return t.edgeOf[v] }

// Lambdas returns, aligned with edge indices, the per-edge single-
// transmission failure probability λ_j = 1-(1-P_pred(j))(1-L_j)(1-P_j)
// evaluated against c. This is the vector the optimize() allocator
// consumes. c may differ from the configuration the tree was built with
// (the adaptive protocol re-evaluates trees as estimates improve), but it
// must cover every tree link.
func (t *Tree) Lambdas(c *config.Config) ([]float64, error) {
	out := make([]float64, t.NumEdges())
	for i := range out {
		child := t.EdgeChild(i)
		lam, err := c.Lambda(t.parent[child], child)
		if err != nil {
			return nil, fmt.Errorf("mrt: edge %d: %w", i, err)
		}
		out[i] = lam
	}
	return out, nil
}

// TotalWeight returns the sum of edge reliabilities under c. The MRT is a
// maximum spanning tree, so no other spanning tree of the same topology
// has a larger total (the property behind Lemma 2's edge bijection).
func (t *Tree) TotalWeight(c *config.Config) (float64, error) {
	var sum float64
	for i := 0; i < t.NumEdges(); i++ {
		child := t.EdgeChild(i)
		rel, err := c.EdgeReliability(t.parent[child], child)
		if err != nil {
			return 0, err
		}
		sum += rel
	}
	return sum, nil
}

// Validate checks the structural invariants: one edge per spanned
// non-root node, every active non-root node has a parent (tombstoned
// nodes must have none), the parent pointers are acyclic and reach the
// root, and every tree edge exists in g.
func (t *Tree) Validate(g *topology.Graph) error {
	n := t.NumNodes()
	if g.NumNodes() != n {
		return fmt.Errorf("mrt: tree spans %d nodes, topology has %d", n, g.NumNodes())
	}
	if len(t.order) != g.NumActive() {
		return fmt.Errorf("mrt: order covers %d of %d active nodes", len(t.order), g.NumActive())
	}
	for v := 0; v < n; v++ {
		id := topology.NodeID(v)
		if id == t.root {
			if t.parent[v] != topology.None {
				return fmt.Errorf("mrt: root %d has parent %d", id, t.parent[v])
			}
			continue
		}
		p := t.parent[v]
		if !g.Active(id) {
			if p != topology.None {
				return fmt.Errorf("mrt: removed node %d has parent %d", id, p)
			}
			continue
		}
		if p == topology.None {
			return fmt.Errorf("mrt: node %d has no parent", id)
		}
		if !g.HasLink(p, id) {
			return fmt.Errorf("mrt: tree edge (%d,%d) is not a topology link", p, id)
		}
		// Walk to the root; more than n steps means a cycle.
		steps := 0
		for cur := id; cur != t.root; cur = t.parent[cur] {
			steps++
			if steps > n {
				return fmt.Errorf("mrt: cycle detected at node %d", id)
			}
		}
	}
	return nil
}

// Depth returns the hop distance of v from the root within the tree.
func (t *Tree) Depth(v topology.NodeID) int {
	d := 0
	for cur := v; cur != t.root; cur = t.parent[cur] {
		d++
	}
	return d
}
