package mrt_test

import (
	"math/rand"
	"testing"

	"adaptivecast/internal/config"
	"adaptivecast/internal/mrt"
	"adaptivecast/internal/optimize"
	"adaptivecast/internal/topology"
)

// TestMRTNeedsFewestGreedyCopies checks Appendix C's claim as the
// protocol uses it: no spanning tree of the topology reaches K with fewer
// copies, allocated by optimize's greedy, than the Maximum Reliability
// Tree. Every spanning tree of small random connected graphs (6–8
// processes, at most 16 links) is enumerated, under crash probability
// 0.005 and link loss drawn from U[0.01, 0.20] and from U[0.01, 0.50], at
// K = 0.9999 and 0.99. The appendix's argument needs each edge's miss
// probability λ to be the same both ways and every copy to be lost
// independently; the paper's model has both, and so does this check.
// -short checks 40 graphs.
func TestMRTNeedsFewestGreedyCopies(t *testing.T) {
	graphs := 75 // per (loss, K) pair: ≈ 140,000 trees, 0.6 s
	if testing.Short() {
		graphs = 10
	}
	rng := rand.New(rand.NewSource(2004))
	var alloc optimize.Allocator
	copiesOf := func(lams []float64, k float64) int {
		m, err := alloc.Greedy(lams, k, optimize.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return optimize.Total(m)
	}
	trees := 0
	for _, maxLoss := range []float64{0.20, 0.50} {
		for _, k := range []float64{0.9999, 0.99} {
			for made := 0; made < graphs; {
				n := 6 + rng.Intn(3)
				g, err := topology.RandomConnected(n, 2+rng.Intn(3), rng)
				if err != nil {
					t.Fatal(err)
				}
				if g.NumLinks() > 16 {
					continue
				}
				made++
				c, err := config.Uniform(g, 0.005, 0)
				if err != nil {
					t.Fatal(err)
				}
				for li := range g.NumLinks() {
					if err := c.SetLoss(li, 0.01+(maxLoss-0.01)*rng.Float64()); err != nil {
						t.Fatal(err)
					}
				}
				tree, err := mrt.Build(g, c, topology.NodeID(rng.Intn(n)))
				if err != nil {
					t.Fatal(err)
				}
				lams, err := tree.Lambdas(c)
				if err != nil {
					t.Fatal(err)
				}
				best := copiesOf(lams, k)
				eachSpanningTree(g, func(links []int) {
					trees++
					lams = lams[:0]
					for _, li := range links {
						l := g.Link(li)
						rel, err := c.EdgeReliability(l.A, l.B)
						if err != nil {
							t.Fatal(err)
						}
						lams = append(lams, 1-rel)
					}
					if got := copiesOf(lams, k); got < best {
						t.Errorf("max loss %.2f, K = %v: the spanning tree on links %v needs %d greedy copies, the MRT %d",
							maxLoss, k, links, got, best)
					}
				})
			}
		}
	}
	t.Logf("%d spanning trees of %d graphs checked", trees, 4*graphs)
}

// eachSpanningTree calls visit with the link indices of every spanning
// tree of g, which has at most 8 processes: every set of n − 1 links
// that closes no cycle.
func eachSpanningTree(g *topology.Graph, visit func(links []int)) {
	n, links := g.NumNodes(), g.Links()
	var chosen []int
	var grow func(from int, roots [8]int8)
	grow = func(from int, roots [8]int8) {
		if len(chosen) == n-1 {
			visit(chosen)
			return
		}
		for i := from; i <= len(links)-(n-1-len(chosen)); i++ {
			a, b := root(&roots, int8(links[i].A)), root(&roots, int8(links[i].B))
			if a == b {
				continue
			}
			next := roots
			next[a] = b
			chosen = append(chosen, i)
			grow(i+1, next)
			chosen = chosen[:len(chosen)-1]
		}
	}
	var roots [8]int8
	for i := range roots {
		roots[i] = int8(i)
	}
	grow(0, roots)
}

func root(roots *[8]int8, x int8) int8 {
	for roots[x] != x {
		x = roots[x]
	}
	return x
}
