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
// the parent vector and the order nodes joined the tree in (which fixes
// the edge indices and the child lists); ok is false on a disconnected
// topology.
func oracleParents(g *topology.Graph, c *config.Config, root topology.NodeID) (parents, order []topology.NodeID, ok bool) {
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
		order = append(order, v)
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
			return nil, nil, false
		}
		e := heap.Pop(h).(cross)
		if inTree[e.to] {
			continue
		}
		parents[e.to] = e.from
		add(e.to)
	}
	return parents, order, true
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
		want, _, ok := oracleParents(g, c, root)
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

// TestBuilderReusedMatchesOracle: one Builder taken through 200 random
// (graph, config, root) triples of varying size — disconnected ones and
// ones with a departed member among them — returns each time the parents,
// order, edge indices and child lists the oracle derives from scratch,
// with nothing of the tree before left in them.
func TestBuilderReusedMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var b Builder
	built := 0
	for i := 0; i < 200; i++ {
		n := 5 + rng.Intn(60)
		g, err := topology.RandomConnected(n, 2+rng.Intn(3), rng)
		if err != nil {
			t.Fatal(err)
		}
		if i%4 == 0 {
			if err := g.RemoveNode(topology.NodeID(rng.Intn(n))); err != nil {
				t.Fatal(err)
			}
		}
		c := tiedConfig(t, g, rng)
		root := topology.NodeID(rng.Intn(n))
		if !g.Active(root) {
			continue
		}
		parents, order, ok := oracleParents(g, c, root)
		tree, err := b.Build(g, c, root)
		if !ok {
			if err != ErrDisconnected {
				t.Fatalf("triple %d: oracle found no spanning tree, Build err = %v", i, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("triple %d: %v", i, err)
		}
		built++
		if tree.Root() != root || tree.NumNodes() != n || len(tree.Order()) != len(order) {
			t.Fatalf("triple %d: tree rooted at %d over %d slots spans %d nodes, oracle: root %d, %d slots, %d nodes",
				i, tree.Root(), tree.NumNodes(), len(tree.Order()), root, n, len(order))
		}
		children := make([][]topology.NodeID, n)
		for at, v := range order {
			if tree.Order()[at] != v {
				t.Fatalf("triple %d: order %v, oracle %v", i, tree.Order(), order)
			}
			if tree.EdgeOf(v) != at-1 {
				t.Fatalf("triple %d: edge of %d is %d, oracle says %d", i, v, tree.EdgeOf(v), at-1)
			}
			if at > 0 {
				children[parents[v]] = append(children[parents[v]], v)
			}
		}
		for v := 0; v < n; v++ {
			id := topology.NodeID(v)
			if tree.Parent(id) != parents[v] {
				t.Fatalf("triple %d: parent of %d is %d, oracle says %d", i, v, tree.Parent(id), parents[v])
			}
			if parents[v] == topology.None && id != root && tree.EdgeOf(id) != -1 {
				t.Fatalf("triple %d: unspanned slot %d has edge %d", i, v, tree.EdgeOf(id))
			}
			got := tree.Children(id)
			if len(got) != len(children[v]) {
				t.Fatalf("triple %d: children of %d are %v, oracle says %v", i, v, got, children[v])
			}
			for k := range got {
				if got[k] != children[v][k] {
					t.Fatalf("triple %d: children of %d are %v, oracle says %v", i, v, got, children[v])
				}
			}
		}
	}
	if built < 100 {
		t.Fatalf("only %d of 200 triples built a tree", built)
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
	// A Builder that built this tree before owns all of that already.
	var b Builder
	if got := testing.AllocsPerRun(20, func() {
		if tree, err = b.Build(g, c, 0); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("a warm Builder allocated %.0f times, want 0", got)
	}
}
