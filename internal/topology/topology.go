// Package topology models the system graph G = (Π, Λ) from the paper:
// a set of processes Π connected by bidirectional, lossy communication
// links Λ. It also provides the standard generators used by the paper's
// evaluation (ring, random tree, k-neighbor random graphs) plus a few
// extras (star, grid, clustered WAN) used by the examples and ablations.
//
// Links are undirected and canonicalized so that Link{A, B} always has
// A < B; every link also gets a dense index in [0, NumLinks) so that
// per-link state can live in slices instead of maps on hot paths.
//
// The paper assumes Π is fixed and globally known; this package relaxes
// that with membership epochs. AddNode grows the ID space, RemoveNode
// tombstones a process (IDs are never reused or compacted, so per-node
// state indexed by NodeID stays valid across epochs), and both bump a
// monotonically increasing Epoch that the wire and node layers use to
// fence frames from different membership views against each other.
// RemoveLink keeps the dense link index compacted by swap-removal and
// reports the affected slot so aligned per-link state can mirror the move.
package topology

import (
	"fmt"
	"sort"
)

// NodeID identifies a process p_i in Π. IDs are dense in [0, n).
type NodeID int

// None is the NodeID sentinel for "no node" (for example the parent of a
// tree root).
const None NodeID = -1

// Link is an undirected communication link l_{a,b} in Λ, canonicalized so
// that A < B.
type Link struct {
	A, B NodeID
}

// NewLink returns the canonical form of the link between a and b.
func NewLink(a, b NodeID) Link {
	if a > b {
		a, b = b, a
	}
	return Link{A: a, B: b}
}

// Other returns the endpoint of l that is not id. It returns None if id is
// not an endpoint of l.
func (l Link) Other(id NodeID) NodeID {
	switch id {
	case l.A:
		return l.B
	case l.B:
		return l.A
	default:
		return None
	}
}

// String implements fmt.Stringer.
func (l Link) String() string {
	return fmt.Sprintf("l(%d,%d)", l.A, l.B)
}

// Graph is the system topology G = (Π, Λ). The zero value is an empty
// graph; use New to create a graph with a fixed process set.
type Graph struct {
	n         int
	epoch     uint64
	removed   []bool // tombstoned node IDs (never reused)
	nRemoved  int
	links     []Link
	linkIndex map[Link]int
	adj       [][]NodeID // adj[i] = sorted neighbor IDs of node i
	adjLink   [][]int    // adjLink[i][k] = link index of the link to adj[i][k]
}

// New returns an empty graph over n processes (no links) at epoch 0.
func New(n int) *Graph {
	g := new(Graph)
	g.Reset(n)
	return g
}

// Reset empties g to what New(n) returns — n live processes, no links,
// epoch 0 — keeping its storage: the link list, the link map's buckets and
// every adjacency list stay allocated, so refilling a graph of the same
// shape allocates nothing.
func (g *Graph) Reset(n int) {
	if n < 0 {
		n = 0
	}
	g.n, g.epoch, g.nRemoved = n, 0, 0
	g.links = g.links[:0]
	if g.linkIndex == nil {
		g.linkIndex = make(map[Link]int)
	}
	clear(g.linkIndex)
	g.removed, g.adj, g.adjLink = resized(g.removed, n), resized(g.adj, n), resized(g.adjLink, n)
	clear(g.removed)
	for i := range g.adj {
		g.adj[i], g.adjLink[i] = g.adj[i][:0], g.adjLink[i][:0]
	}
}

// resized returns s at length n, keeping the elements its array already
// holds (for the adjacency lists, their storage) and zero ones past them.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// NumNodes returns the size of the ID space [0, n) — tombstoned processes
// included, so NodeID-indexed state stays addressable across epochs. Use
// NumActive for the live process count.
func (g *Graph) NumNodes() int { return g.n }

// NumActive returns the number of live (non-tombstoned) processes.
func (g *Graph) NumActive() int { return g.n - g.nRemoved }

// Active reports whether id names a live process. Out-of-range IDs are
// not active.
func (g *Graph) Active(id NodeID) bool {
	return id >= 0 && int(id) < g.n && !g.removed[id]
}

// Epoch returns the membership epoch: the number of membership mutations
// (AddNode, RemoveNode, RemoveLink) applied since construction.
// Construction-time AddLink does not bump it, so generated static
// topologies are epoch 0.
func (g *Graph) Epoch() uint64 { return g.epoch }

// AddNode grows Π by one process, returning its ID (always the next dense
// ID — removed IDs are never reused) and bumping the epoch. The new node
// starts with no links; wire it with AddLink.
func (g *Graph) AddNode() NodeID {
	id := NodeID(g.n)
	g.n++
	g.removed = append(g.removed, false)
	g.adj = append(g.adj, nil)
	g.adjLink = append(g.adjLink, nil)
	g.epoch++
	return id
}

// RemoveNode tombstones a process and removes its incident links, bumping
// the epoch once. The ID is never reused; per-ID state held by other
// layers keeps its slot and is expected to be tombstoned in kind.
func (g *Graph) RemoveNode(id NodeID) error {
	if !g.Active(id) {
		return fmt.Errorf("topology: remove of unknown or already removed node %d", id)
	}
	// Snapshot the neighbor list: removing links mutates adj[id].
	nbs := append([]NodeID(nil), g.adj[id]...)
	for _, nb := range nbs {
		if _, _, err := g.removeLink(id, nb); err != nil {
			return err
		}
	}
	g.removed[id] = true
	g.nRemoved++
	g.epoch++ // one bump for the whole membership change, links included
	return nil
}

// NumLinks returns |Λ|.
func (g *Graph) NumLinks() int { return len(g.links) }

// Links returns the link set in index order. The returned slice is shared;
// callers must not modify it.
func (g *Graph) Links() []Link { return g.links }

// Link returns the link with the given dense index.
func (g *Graph) Link(idx int) Link { return g.links[idx] }

// AddLink inserts the undirected link between a and b and returns its dense
// index. Adding an existing link returns the existing index. Self-loops and
// out-of-range endpoints are rejected.
func (g *Graph) AddLink(a, b NodeID) (int, error) {
	if a == b {
		return -1, fmt.Errorf("topology: self-loop on node %d", a)
	}
	if !g.valid(a) || !g.valid(b) {
		return -1, fmt.Errorf("topology: link (%d,%d) out of range [0,%d)", a, b, g.n)
	}
	l := NewLink(a, b)
	if idx, ok := g.linkIndex[l]; ok {
		return idx, nil
	}
	idx := len(g.links)
	g.links = append(g.links, l)
	g.linkIndex[l] = idx
	g.insertNeighbor(a, b, idx)
	g.insertNeighbor(b, a, idx)
	return idx, nil
}

// insertNeighbor keeps adjacency lists sorted by neighbor ID so that
// iteration order (and therefore every algorithm built on it) is
// deterministic.
func (g *Graph) insertNeighbor(at, nb NodeID, linkIdx int) {
	pos := sort.Search(len(g.adj[at]), func(i int) bool { return g.adj[at][i] >= nb })
	g.adj[at] = append(g.adj[at], 0)
	copy(g.adj[at][pos+1:], g.adj[at][pos:])
	g.adj[at][pos] = nb
	g.adjLink[at] = append(g.adjLink[at], 0)
	copy(g.adjLink[at][pos+1:], g.adjLink[at][pos:])
	g.adjLink[at][pos] = linkIdx
}

// RemoveLink deletes the undirected link between a and b and bumps the
// epoch. The dense link index stays compacted by swap-removal: the last
// link moves into the freed slot. The return values report the freed slot
// (removedIdx) and the old index of the link that moved into it (movedIdx,
// -1 when the removed link was last), so aligned per-link state can mirror
// the move with state[removedIdx] = state[movedIdx]; state = state[:len-1].
func (g *Graph) RemoveLink(a, b NodeID) (removedIdx, movedIdx int, err error) {
	removedIdx, movedIdx, err = g.removeLink(a, b)
	if err == nil {
		g.epoch++
	}
	return removedIdx, movedIdx, err
}

// removeLink is RemoveLink without the epoch bump (RemoveNode collapses
// several removals into one membership change).
func (g *Graph) removeLink(a, b NodeID) (removedIdx, movedIdx int, err error) {
	l := NewLink(a, b)
	idx, ok := g.linkIndex[l]
	if !ok {
		return -1, -1, fmt.Errorf("topology: no link between %d and %d", a, b)
	}
	g.deleteNeighbor(l.A, l.B)
	g.deleteNeighbor(l.B, l.A)
	delete(g.linkIndex, l)

	last := len(g.links) - 1
	movedIdx = -1
	if idx != last {
		moved := g.links[last]
		g.links[idx] = moved
		g.linkIndex[moved] = idx
		movedIdx = last
		// Re-point the moved link's adjacency entries at its new index.
		g.repointLink(moved.A, moved.B, idx)
		g.repointLink(moved.B, moved.A, idx)
	}
	g.links = g.links[:last]
	return idx, movedIdx, nil
}

// deleteNeighbor removes nb from at's sorted adjacency (and the aligned
// link-index slot).
func (g *Graph) deleteNeighbor(at, nb NodeID) {
	pos := sort.Search(len(g.adj[at]), func(i int) bool { return g.adj[at][i] >= nb })
	if pos >= len(g.adj[at]) || g.adj[at][pos] != nb {
		return
	}
	g.adj[at] = append(g.adj[at][:pos], g.adj[at][pos+1:]...)
	g.adjLink[at] = append(g.adjLink[at][:pos], g.adjLink[at][pos+1:]...)
}

// repointLink updates at's adjacency slot for neighbor nb to a new dense
// link index (after a swap-removal moved the link).
func (g *Graph) repointLink(at, nb NodeID, newIdx int) {
	pos := sort.Search(len(g.adj[at]), func(i int) bool { return g.adj[at][i] >= nb })
	if pos < len(g.adj[at]) && g.adj[at][pos] == nb {
		g.adjLink[at][pos] = newIdx
	}
}

// HasLink reports whether a and b are directly connected.
func (g *Graph) HasLink(a, b NodeID) bool {
	_, ok := g.linkIndex[NewLink(a, b)]
	return ok
}

// LinkIndex returns the dense index of the link between a and b, or -1 if
// the link does not exist.
func (g *Graph) LinkIndex(a, b NodeID) int {
	idx, ok := g.linkIndex[NewLink(a, b)]
	if !ok {
		return -1
	}
	return idx
}

// Neighbors returns the sorted neighbor set of id. The returned slice is
// shared; callers must not modify it.
func (g *Graph) Neighbors(id NodeID) []NodeID { return g.adj[id] }

// NeighborLinks returns, aligned with Neighbors(id), the dense link index
// of each incident link. The returned slice is shared; callers must not
// modify it.
func (g *Graph) NeighborLinks(id NodeID) []int { return g.adjLink[id] }

// Degree returns the number of neighbors of id.
func (g *Graph) Degree(id NodeID) int { return len(g.adj[id]) }

func (g *Graph) valid(id NodeID) bool { return g.Active(id) }

// Clone returns a deep copy of the graph, preserving link indices,
// tombstones and the epoch.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	for _, l := range g.links {
		if _, err := c.AddLink(l.A, l.B); err != nil {
			// Links in g were validated on insertion; re-adding them
			// cannot fail.
			panic("topology: clone: " + err.Error())
		}
	}
	copy(c.removed, g.removed)
	c.nRemoved = g.nRemoved
	c.epoch = g.epoch
	return c
}

// Connected reports whether every active process can reach every other
// active process. The empty graph and the single-active-node graph are
// connected; tombstoned processes are ignored.
func (g *Graph) Connected() bool {
	active := g.NumActive()
	if active <= 1 {
		return true
	}
	var start NodeID = None
	for v := 0; v < g.n; v++ {
		if !g.removed[v] {
			start = NodeID(v)
			break
		}
	}
	seen := make([]bool, g.n)
	stack := []NodeID{start}
	seen[start] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.adj[v] {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == active
}

// Distances returns the hop distance from src to every node (-1 if
// unreachable) via breadth-first search.
func (g *Graph) Distances(src NodeID) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	if !g.valid(src) {
		return dist
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.adj[v] {
			if dist[w] == -1 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// Diameter returns the longest shortest-path distance between any two
// active nodes, or -1 if the graph is disconnected or empty.
func (g *Graph) Diameter() int {
	if g.NumActive() == 0 {
		return -1
	}
	max := 0
	for v := 0; v < g.n; v++ {
		if g.removed[v] {
			continue
		}
		for w, d := range g.Distances(NodeID(v)) {
			if g.removed[w] {
				continue
			}
			if d < 0 {
				return -1
			}
			if d > max {
				max = d
			}
		}
	}
	return max
}
