package mrt

import (
	"container/heap"
	"math/rand"
	"testing"

	"adaptivecast/internal/config"
	"adaptivecast/internal/raceflag"
	"adaptivecast/internal/topology"
)

// oracleHeap is the container/heap candidate queue Build used before its
// typed heap, kept as the reference the typed one is compared against.
type oracleHeap []cross

func (h oracleHeap) Len() int            { return len(h) }
func (h oracleHeap) Less(i, j int) bool  { return h[i].before(h[j]) }
func (h oracleHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x interface{}) { *h = append(*h, x.(cross)) }
func (h *oracleHeap) Pop() interface{} {
	old := *h
	item := old[len(old)-1]
	*h = old[:len(old)-1]
	return item
}

// oracleParents is Appendix B's modified Prim over oracleHeap, reduced to
// the parent vector; ok is false on a disconnected topology.
func oracleParents(g *topology.Graph, c *config.Config, root topology.NodeID) (parents []topology.NodeID, ok bool) {
	n := g.NumNodes()
	parents = make([]topology.NodeID, n)
	for i := range parents {
		parents[i] = topology.None
	}
	inTree := make([]bool, n)
	h := &oracleHeap{}
	spanned := 0
	add := func(v topology.NodeID) {
		inTree[v] = true
		spanned++
		links := g.NeighborLinks(v)
		for i, w := range g.Neighbors(v) {
			if inTree[w] {
				continue
			}
			a, b := v, w
			if a > b {
				a, b = b, a
			}
			heap.Push(h, cross{rel: (1 - c.Crash(a)) * (1 - c.Loss(links[i])) * (1 - c.Crash(b)), from: v, to: w})
		}
	}
	add(root)
	for spanned < g.NumActive() {
		if h.Len() == 0 {
			return nil, false
		}
		e := heap.Pop(h).(cross)
		if inTree[e.to] {
			continue
		}
		parents[e.to] = e.from
		add(e.to)
	}
	return parents, true
}

// tiedConfig draws every crash and loss probability from three values, so
// most candidate edges tie on reliability and the (from, to) tie-break
// decides the tree.
func tiedConfig(t testing.TB, g *topology.Graph, rng *rand.Rand) *config.Config {
	t.Helper()
	levels := []float64{0, 0.05, 0.2}
	c := config.New(g)
	for v := 0; v < g.NumNodes(); v++ {
		if err := c.SetCrash(topology.NodeID(v), levels[rng.Intn(len(levels))]); err != nil {
			t.Fatal(err)
		}
	}
	for l := 0; l < g.NumLinks(); l++ {
		if err := c.SetLoss(l, levels[rng.Intn(len(levels))]); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestBuildMatchesContainerHeapOracle: over 200 random (graph, config,
// root) triples with forced ties, the typed heap yields the parent vector
// the container/heap implementation yielded.
func TestBuildMatchesContainerHeapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 200; i++ {
		n := 4 + rng.Intn(40)
		g, err := topology.RandomConnected(n, 2+rng.Intn(2), rng)
		if err != nil {
			t.Fatal(err)
		}
		if i%4 == 0 {
			// A departed member: the tree may or may not survive it.
			if err := g.RemoveNode(topology.NodeID(rng.Intn(n))); err != nil {
				t.Fatal(err)
			}
		}
		c := tiedConfig(t, g, rng)
		root := topology.NodeID(rng.Intn(n))
		if !g.Active(root) {
			continue
		}
		want, ok := oracleParents(g, c, root)
		tree, err := Build(g, c, root)
		if !ok {
			if err != ErrDisconnected {
				t.Fatalf("triple %d: oracle found no spanning tree, Build err = %v", i, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("triple %d: %v", i, err)
		}
		got := tree.Parents()
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("triple %d (n=%d root=%d): parent of %d is %d, oracle says %d", i, n, root, v, got[v], want[v])
			}
		}
	}
}

// TestAllocsBuild pins a replan's tree at the tree, its four vectors, the
// in-tree marks, the candidate heap and at most one child-list growth per
// tree edge — nothing per candidate edge pushed or popped.
func TestAllocsBuild(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation pins do not hold under the race detector")
	}
	rng := rand.New(rand.NewSource(5))
	g, err := topology.RandomConnected(128, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	c := tiedConfig(t, g, rng)
	var tree *Tree
	got := testing.AllocsPerRun(20, func() {
		if tree, err = Build(g, c, 0); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(8 + tree.NumEdges()); got > limit {
		t.Errorf("Build allocated %.0f times over %d links at n = 128, want <= %.0f", got, g.NumLinks(), limit)
	}
}
