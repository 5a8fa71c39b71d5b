package experiments

import (
	"fmt"
	"math/rand"

	"adaptivecast/internal/config"
	"adaptivecast/internal/gossip"
	"adaptivecast/internal/mrt"
	"adaptivecast/internal/optimize"
	"adaptivecast/internal/topology"
)

// AblationParams configures the design-choice ablations: AblationAllocation,
// AblationTree and AblationGossipAcks.
type AblationParams struct {
	// N is the process count.
	N int
	// Connectivity is links per process.
	Connectivity int
	// K is the reliability target.
	K float64
	// Graphs averages over several random topologies.
	Graphs int
	// Seed drives generation.
	Seed int64
	// HeterogeneousLoss draws per-link loss probabilities uniformly from
	// [0, MaxLoss) instead of using one shared value — the setting the
	// paper's conclusion predicts widens the adaptive advantage.
	HeterogeneousLoss bool
	// MaxLoss bounds the loss probabilities (default 0.2).
	MaxLoss float64
}

func (p AblationParams) withDefaults() AblationParams {
	if p.N == 0 {
		p.N = 60
	}
	if p.Connectivity == 0 {
		p.Connectivity = 6
	}
	if p.K == 0 {
		p.K = 0.9999
	}
	if p.Graphs == 0 {
		p.Graphs = 5
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.MaxLoss == 0 {
		p.MaxLoss = 0.2
	}
	return p
}

// ablationConfig draws a configuration per the ablation parameters.
func ablationConfig(p AblationParams, rng *rand.Rand) (*config.Config, error) {
	g, err := connectedGraph(p.N, p.Connectivity, rng)
	if err != nil {
		return nil, err
	}
	if !p.HeterogeneousLoss {
		return uniformConfig(g, 0, p.MaxLoss/2)
	}
	cfg := config.New(g)
	for li := 0; li < g.NumLinks(); li++ {
		if err := cfg.SetLoss(li, rng.Float64()*p.MaxLoss); err != nil {
			return nil, err
		}
	}
	return cfg, nil
}

// AblationAllocation compares the greedy per-edge allocation (Algorithm 2)
// against the uniform allocation baseline on the same MRT: the returned
// figure has one point per topology, y = messages. The gap is the value of
// per-edge optimization alone (tree choice held fixed).
func AblationAllocation(p AblationParams) (FigureResult, error) {
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(p.Seed))
	res := FigureResult{
		ID:     "abl-alloc",
		Title:  "Ablation: greedy vs uniform message allocation on the MRT",
		XLabel: "topology#",
		YLabel: fmt.Sprintf("data messages to reach K=%g", p.K),
	}
	greedySeries := Series{Label: "greedy"}
	uniformSeries := Series{Label: "uniform"}
	for gi := 0; gi < p.Graphs; gi++ {
		cfg, err := ablationConfig(p, rng)
		if err != nil {
			return FigureResult{}, err
		}
		root := topology.NodeID(rng.Intn(p.N))
		tree, err := mrt.Build(cfg.Graph(), cfg, root)
		if err != nil {
			return FigureResult{}, err
		}
		lams, err := tree.Lambdas(cfg)
		if err != nil {
			return FigureResult{}, err
		}
		grd, err := optimize.Greedy(lams, p.K, optimize.Options{})
		if err != nil {
			return FigureResult{}, err
		}
		uni, err := optimize.Uniform(lams, p.K, optimize.Options{})
		if err != nil {
			return FigureResult{}, err
		}
		x := float64(gi)
		greedySeries.X = append(greedySeries.X, x)
		greedySeries.Y = append(greedySeries.Y, float64(optimize.Total(grd)))
		uniformSeries.X = append(uniformSeries.X, x)
		uniformSeries.Y = append(uniformSeries.Y, float64(optimize.Total(uni)))
	}
	res.Series = append(res.Series, greedySeries, uniformSeries)
	return res, nil
}

// AblationTree compares the Maximum Reliability Tree against two
// alternative spanning trees under the same greedy allocator:
// a BFS (shortest-path) tree and a uniformly random spanning tree.
// On heterogeneous-reliability topologies the MRT needs the fewest
// messages (Lemma 2 made measurable).
func AblationTree(p AblationParams) (FigureResult, error) {
	p = p.withDefaults()
	p.HeterogeneousLoss = true
	rng := rand.New(rand.NewSource(p.Seed))
	res := FigureResult{
		ID:     "abl-tree",
		Title:  "Ablation: MRT vs BFS tree vs random spanning tree (heterogeneous loss)",
		XLabel: "topology#",
		YLabel: fmt.Sprintf("data messages to reach K=%g", p.K),
	}
	mrtSeries := Series{Label: "mrt"}
	bfsSeries := Series{Label: "bfs"}
	rndSeries := Series{Label: "random"}
	for gi := 0; gi < p.Graphs; gi++ {
		cfg, err := ablationConfig(p, rng)
		if err != nil {
			return FigureResult{}, err
		}
		root := topology.NodeID(rng.Intn(p.N))

		costs := make(map[string]float64, 3)
		tree, err := mrt.Build(cfg.Graph(), cfg, root)
		if err != nil {
			return FigureResult{}, err
		}
		costs["mrt"], err = treeCost(tree, cfg, p.K)
		if err != nil {
			return FigureResult{}, err
		}
		bfs := bfsTree(cfg.Graph(), root)
		costs["bfs"], err = parentCost(bfs, root, cfg, p.K)
		if err != nil {
			return FigureResult{}, err
		}
		rnd := randomSpanningTree(cfg.Graph(), root, rng)
		costs["random"], err = parentCost(rnd, root, cfg, p.K)
		if err != nil {
			return FigureResult{}, err
		}

		x := float64(gi)
		mrtSeries.X = append(mrtSeries.X, x)
		mrtSeries.Y = append(mrtSeries.Y, costs["mrt"])
		bfsSeries.X = append(bfsSeries.X, x)
		bfsSeries.Y = append(bfsSeries.Y, costs["bfs"])
		rndSeries.X = append(rndSeries.X, x)
		rndSeries.Y = append(rndSeries.Y, costs["random"])
	}
	res.Series = append(res.Series, mrtSeries, bfsSeries, rndSeries)
	return res, nil
}

// treeCost runs the greedy allocator over an MRT and returns Σ m[j].
func treeCost(tree *mrt.Tree, cfg *config.Config, k float64) (float64, error) {
	lams, err := tree.Lambdas(cfg)
	if err != nil {
		return 0, err
	}
	alloc, err := optimize.Greedy(lams, k, optimize.Options{})
	if err != nil {
		return 0, err
	}
	return float64(optimize.Total(alloc)), nil
}

// parentCost computes the allocation cost for an arbitrary spanning tree
// given as a parent vector.
func parentCost(parent []topology.NodeID, root topology.NodeID, cfg *config.Config, k float64) (float64, error) {
	lams := make([]float64, 0, len(parent)-1)
	for v, pa := range parent {
		if topology.NodeID(v) == root {
			continue
		}
		lam, err := cfg.Lambda(pa, topology.NodeID(v))
		if err != nil {
			return 0, err
		}
		lams = append(lams, lam)
	}
	alloc, err := optimize.Greedy(lams, k, optimize.Options{})
	if err != nil {
		return 0, err
	}
	return float64(optimize.Total(alloc)), nil
}

// bfsTree returns the parent vector of a breadth-first spanning tree.
func bfsTree(g *topology.Graph, root topology.NodeID) []topology.NodeID {
	parent := make([]topology.NodeID, g.NumNodes())
	for i := range parent {
		parent[i] = topology.None
	}
	queue := []topology.NodeID{root}
	seen := make([]bool, g.NumNodes())
	seen[root] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(v) {
			if !seen[w] {
				seen[w] = true
				parent[w] = v
				queue = append(queue, w)
			}
		}
	}
	return parent
}

// randomSpanningTree returns the parent vector of a uniform-ish random
// spanning tree built by a randomized DFS.
func randomSpanningTree(g *topology.Graph, root topology.NodeID, rng *rand.Rand) []topology.NodeID {
	parent := make([]topology.NodeID, g.NumNodes())
	for i := range parent {
		parent[i] = topology.None
	}
	seen := make([]bool, g.NumNodes())
	seen[root] = true
	stack := []topology.NodeID{root}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nbs := g.Neighbors(v)
		order := rng.Perm(len(nbs))
		for _, i := range order {
			w := nbs[i]
			if !seen[w] {
				seen[w] = true
				parent[w] = v
				stack = append(stack, w)
			}
		}
	}
	return parent
}

// AblationGossipAcks measures the value of the reference algorithm's ack
// optimization: data messages with acks (to quiescence) versus without
// acks over the same step budget.
func AblationGossipAcks(p AblationParams) (FigureResult, error) {
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(p.Seed))
	res := FigureResult{
		ID:     "abl-acks",
		Title:  "Ablation: reference gossip with vs without acknowledgments",
		XLabel: "topology#",
		YLabel: "data messages",
	}
	withSeries := Series{Label: "with-acks"}
	withoutSeries := Series{Label: "no-acks"}
	for gi := 0; gi < p.Graphs; gi++ {
		cfg, err := ablationConfig(p, rng)
		if err != nil {
			return FigureResult{}, err
		}
		root := topology.NodeID(rng.Intn(p.N))
		withAcks, err := gossip.MeanCost(cfg, root, rng, 10, gossip.Options{})
		if err != nil {
			return FigureResult{}, err
		}
		budget := int(withAcks.Rounds + 0.5)
		if budget < 1 {
			budget = 1
		}
		noAcks, err := gossip.MeanCost(cfg, root, rng, 10,
			gossip.Options{DisableAcks: true, FixedRounds: budget})
		if err != nil {
			return FigureResult{}, err
		}
		x := float64(gi)
		withSeries.X = append(withSeries.X, x)
		withSeries.Y = append(withSeries.Y, withAcks.DataMessages)
		withoutSeries.X = append(withoutSeries.X, x)
		withoutSeries.Y = append(withoutSeries.Y, noAcks.DataMessages)
	}
	res.Series = append(res.Series, withSeries, withoutSeries)
	return res, nil
}
