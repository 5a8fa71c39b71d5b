package mrt

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"adaptivecast/internal/config"
	"adaptivecast/internal/topology"
)

func uniform(t *testing.T, g *topology.Graph, p, l float64) *config.Config {
	t.Helper()
	c, err := config.Uniform(g, p, l)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBuildOnRing(t *testing.T) {
	g, err := topology.Ring(6)
	if err != nil {
		t.Fatal(err)
	}
	c := uniform(t, g, 0.01, 0.01)
	tree, err := Build(g, c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(g); err != nil {
		t.Fatal(err)
	}
	if tree.NumEdges() != 5 {
		t.Errorf("edges = %d, want 5", tree.NumEdges())
	}
	if tree.Root() != 0 {
		t.Errorf("root = %d, want 0", tree.Root())
	}
	if tree.Parent(0) != topology.None {
		t.Errorf("root parent = %d, want None", tree.Parent(0))
	}
}

func TestBuildErrors(t *testing.T) {
	g, err := topology.Ring(5)
	if err != nil {
		t.Fatal(err)
	}
	c := uniform(t, g, 0, 0)
	if _, err := Build(g, c, -1); err == nil {
		t.Error("root -1 should fail")
	}
	if _, err := Build(g, c, 5); err == nil {
		t.Error("root out of range should fail")
	}

	// Disconnected topology.
	d := topology.New(4)
	if _, err := d.AddLink(0, 1); err != nil {
		t.Fatal(err)
	}
	dc := config.New(d)
	if _, err := Build(d, dc, 0); err != ErrDisconnected {
		t.Errorf("err = %v, want ErrDisconnected", err)
	}

	// Misaligned configuration.
	other, err := topology.Ring(5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(g, config.New(other), 0); err == nil {
		t.Error("misaligned config should fail")
	}
}

// TestPrefersReliableLink reproduces the paper's motivating behavior: with
// two paths of different reliability, the MRT routes around the lossy one.
func TestPrefersReliableLink(t *testing.T) {
	g := topology.TwoPaths() // 0 -2- 1 and 0 -3- 1
	c := config.New(g)
	// Path through node 2 is reliable; path through 3 is lossy.
	if err := c.SetLossBetween(0, 3, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := c.SetLossBetween(3, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	tree, err := Build(g, c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Parent(1) != 2 {
		t.Errorf("destination reached via %d, want 2 (the reliable relay)", tree.Parent(1))
	}
	// Node 3 is still spanned — via its reliable attachment to the source.
	if tree.Parent(3) != 0 {
		t.Errorf("lossy relay attached via %d, want 0", tree.Parent(3))
	}
}

func TestAvoidsUnreliableProcess(t *testing.T) {
	g := topology.TwoPaths()
	c := config.New(g)
	if err := c.SetCrash(3, 0.6); err != nil { // relay on path two crashes a lot
		t.Fatal(err)
	}
	tree, err := Build(g, c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Parent(1) != 2 {
		t.Errorf("destination reached via %d, want 2", tree.Parent(1))
	}
}

func TestDeterministicAcrossProcesses(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, err := topology.RandomConnected(30, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	c := uniform(t, g, 0.02, 0.02)
	t1, err := Build(g, c, 4)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Build(g, c, 4)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 30; v++ {
		if t1.Parent(topology.NodeID(v)) != t2.Parent(topology.NodeID(v)) {
			t.Fatalf("non-deterministic parent for node %d", v)
		}
	}
}

func TestEdgeIndexingConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g, err := topology.RandomConnected(20, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	c := uniform(t, g, 0.01, 0.05)
	tree, err := Build(g, c, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tree.EdgeOf(tree.Root()) != -1 {
		t.Errorf("EdgeOf(root) = %d, want -1", tree.EdgeOf(tree.Root()))
	}
	for i := 0; i < tree.NumEdges(); i++ {
		child := tree.EdgeChild(i)
		if tree.EdgeOf(child) != i {
			t.Errorf("EdgeOf(EdgeChild(%d)) = %d", i, tree.EdgeOf(child))
		}
	}
	// Children lists and parent pointers agree.
	for v := 0; v < g.NumNodes(); v++ {
		for _, ch := range tree.Children(topology.NodeID(v)) {
			if tree.Parent(ch) != topology.NodeID(v) {
				t.Errorf("child %d of %d has parent %d", ch, v, tree.Parent(ch))
			}
		}
	}
}

func TestLambdas(t *testing.T) {
	g, err := topology.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	c := uniform(t, g, 0.1, 0.2)
	tree, err := Build(g, c, 0)
	if err != nil {
		t.Fatal(err)
	}
	lams, err := tree.Lambdas(c)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - 0.9*0.8*0.9
	for i, lam := range lams {
		if diff := lam - want; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("lambda[%d] = %v, want %v", i, lam, want)
		}
	}
}

// TestAllocsLambdasInto: λ written into storage that held a longer
// tree's vector reads what a fresh Lambdas reads, in that storage and
// without allocating; storage too short is grown.
func TestAllocsLambdasInto(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g, err := topology.RandomConnected(40, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	c := uniform(t, g, 0.01, 0.05)
	for i := range g.Links() {
		if err := c.SetLoss(i, 0.3*rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	tree, err := Build(g, c, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := tree.Lambdas(c)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 64)
	for i := range dst {
		dst[i] = -1
	}
	got, err := tree.LambdasInto(dst, c)
	if err != nil || !slices.Equal(got, want) || &got[0] != &dst[0] {
		t.Fatalf("into longer storage: %v (%v), want %v in that storage", got, err, want)
	}
	if got, err := tree.LambdasInto(dst[:3:3], c); err != nil || !slices.Equal(got, want) {
		t.Fatalf("into storage too short: %v (%v), want %v", got, err, want)
	}
	if allocs := testing.AllocsPerRun(50, func() { _, _ = tree.LambdasInto(dst, c) }); allocs != 0 {
		t.Errorf("LambdasInto over warm storage allocated %.0f times, want 0", allocs)
	}
}

func TestDepth(t *testing.T) {
	g, err := topology.Line(5)
	if err != nil {
		t.Fatal(err)
	}
	c := uniform(t, g, 0, 0)
	tree, err := Build(g, c, 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 5; v++ {
		if got := tree.Depth(topology.NodeID(v)); got != v {
			t.Errorf("depth(%d) = %d, want %d", v, got, v)
		}
	}
}

// enumerateSpanningTrees yields every spanning tree edge set of g (by link
// indices) via recursive enumeration. Exponential; test-only, small graphs.
func enumerateSpanningTrees(g *topology.Graph) [][]int {
	n := g.NumNodes()
	links := g.Links()
	var out [][]int
	var pick func(start int, chosen []int)
	pick = func(start int, chosen []int) {
		if len(chosen) == n-1 {
			if spans(g, chosen) {
				cp := make([]int, len(chosen))
				copy(cp, chosen)
				out = append(out, cp)
			}
			return
		}
		for i := start; i < len(links); i++ {
			pick(i+1, append(chosen, i))
		}
	}
	pick(0, nil)
	return out
}

func spans(g *topology.Graph, linkIdxs []int) bool {
	n := g.NumNodes()
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	joined := 0
	for _, li := range linkIdxs {
		l := g.Link(li)
		ra, rb := find(int(l.A)), find(int(l.B))
		if ra == rb {
			return false // cycle
		}
		parent[ra] = rb
		joined++
	}
	return joined == n-1
}

// Property: the MRT is a maximum spanning tree — no other spanning tree
// has a larger total edge reliability (this is the substrate of Lemma 2).
// Verified by brute force on random small graphs with random
// probabilities.
func TestMaximumSpanningTreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(3) // 4..6 nodes keeps enumeration tractable
		g, err := topology.RandomConnected(n, 2+rng.Intn(n-2), rng)
		if err != nil {
			return false
		}
		c := config.New(g)
		for v := 0; v < n; v++ {
			if err := c.SetCrash(topology.NodeID(v), rng.Float64()*0.3); err != nil {
				return false
			}
		}
		for li := 0; li < g.NumLinks(); li++ {
			if err := c.SetLoss(li, rng.Float64()*0.5); err != nil {
				return false
			}
		}
		tree, err := Build(g, c, topology.NodeID(rng.Intn(n)))
		if err != nil {
			return false
		}
		if err := tree.Validate(g); err != nil {
			return false
		}
		mrtWeight, err := tree.TotalWeight(c)
		if err != nil {
			return false
		}
		for _, st := range enumerateSpanningTrees(g) {
			var w float64
			for _, li := range st {
				l := g.Link(li)
				rel, err := c.EdgeReliability(l.A, l.B)
				if err != nil {
					return false
				}
				w += rel
			}
			if w > mrtWeight+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: Build produces a valid spanning tree for any connected random
// graph, any root.
func TestAlwaysSpanningProperty(t *testing.T) {
	f := func(seed int64, rootRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		kMax := 4
		if n-2 < kMax {
			kMax = n - 2
		}
		g, err := topology.RandomConnected(n, 2+rng.Intn(kMax), rng)
		if err != nil {
			return false
		}
		c, err := config.Uniform(g, rng.Float64()*0.2, rng.Float64()*0.2)
		if err != nil {
			return false
		}
		root := topology.NodeID(int(rootRaw) % n)
		tree, err := Build(g, c, root)
		if err != nil {
			return false
		}
		return tree.Validate(g) == nil && tree.Root() == root
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
