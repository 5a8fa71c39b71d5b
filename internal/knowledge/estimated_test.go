package knowledge

import (
	"math"
	"math/rand"
	"testing"

	"adaptivecast/internal/bayes"
	"adaptivecast/internal/config"
	"adaptivecast/internal/topology"
)

// randomView builds a view over n processes the way a live one comes to
// be: created smaller and grown, its links learned from a peer's records
// in random order, a few members tombstoned afterwards.
func randomView(t *testing.T, rng *rand.Rand, n int) *View {
	t.Helper()
	n0 := n - rng.Intn(3)
	self := topology.NodeID(rng.Intn(n0))
	var nbs []topology.NodeID
	for _, p := range rng.Perm(n0)[:1+rng.Intn(3)] {
		if topology.NodeID(p) != self {
			nbs = append(nbs, topology.NodeID(p))
		}
	}
	v, err := NewView(self, n0, nbs, nil, Params{})
	if err != nil {
		t.Fatal(err)
	}
	v.Grow(n)
	from := (self + 1) % topology.NodeID(n0)
	est := func() bayes.State {
		return bayes.State{Succ: rng.Intn(400), Fail: rng.Intn(40)}
	}
	snap := &Snapshot{From: from, Seq: 1}
	for _, p := range rng.Perm(n)[:n/2] {
		snap.Procs = append(snap.Procs, ProcRecord{ID: topology.NodeID(p), Dist: 1 + rng.Intn(4), Est: est()})
	}
	for i := 0; i < 2*n; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			snap.Links = append(snap.Links, LinkRecord{Link: topology.NewLink(topology.NodeID(a), topology.NodeID(b)), Dist: 1 + rng.Intn(4), Est: est()})
		}
	}
	if err := v.MergeSnapshotKnowledgeOnly(snap); err != nil {
		t.Fatal(err)
	}
	for i := rng.Intn(3); i > 0; i-- {
		v.MarkDeparted(topology.NodeID(rng.Intn(n))) // a no-op on self
	}
	return v
}

// TestEstimatedConfigIntoReusedWorkspace: a (graph, config) pair last
// filled from a larger view yields, refilled from a smaller one, exactly
// what a fresh EstimatedConfig yields — the same links at the same dense
// indices, the same adjacency, the same active set, bit-equal crash and
// loss vectors — with nothing of the larger view left over.
func TestEstimatedConfigIntoReusedWorkspace(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g, c := new(topology.Graph), new(config.Config)
	for i := 0; i < 200; i++ {
		n := 4 + rng.Intn(60)
		if err := randomView(t, rng, n+1+rng.Intn(20)).EstimatedConfigInto(g, c); err != nil {
			t.Fatal(err)
		}
		v := randomView(t, rng, n)
		if err := v.EstimatedConfigInto(g, c); err != nil {
			t.Fatal(err)
		}
		wantG, wantC, err := v.EstimatedConfig()
		if err != nil {
			t.Fatal(err)
		}
		if c.Graph() != g {
			t.Fatalf("view %d: the refilled config is not aligned with the refilled graph", i)
		}
		if g.NumNodes() != wantG.NumNodes() || g.NumActive() != wantG.NumActive() || g.NumLinks() != wantG.NumLinks() || g.Epoch() != wantG.Epoch() {
			t.Fatalf("view %d: reused graph has %d nodes, %d active, %d links at epoch %d; fresh has %d, %d, %d at %d", i,
				g.NumNodes(), g.NumActive(), g.NumLinks(), g.Epoch(), wantG.NumNodes(), wantG.NumActive(), wantG.NumLinks(), wantG.Epoch())
		}
		for j, l := range wantG.Links() {
			if g.Link(j) != l || g.LinkIndex(l.A, l.B) != j {
				t.Fatalf("view %d: link %d is %v (index of %v: %d), fresh graph has %v", i, j, g.Link(j), l, g.LinkIndex(l.A, l.B), l)
			}
			if math.Float64bits(c.Loss(j)) != math.Float64bits(wantC.Loss(j)) {
				t.Fatalf("view %d: loss of link %d is %v, fresh config has %v", i, j, c.Loss(j), wantC.Loss(j))
			}
		}
		for p := 0; p < n; p++ {
			id := topology.NodeID(p)
			if g.Active(id) != wantG.Active(id) {
				t.Fatalf("view %d: process %d active = %v, fresh graph says %v", i, p, g.Active(id), wantG.Active(id))
			}
			if math.Float64bits(c.Crash(id)) != math.Float64bits(wantC.Crash(id)) {
				t.Fatalf("view %d: crash of %d is %v, fresh config has %v", i, p, c.Crash(id), wantC.Crash(id))
			}
			nbs, wantNbs := g.Neighbors(id), wantG.Neighbors(id)
			if len(nbs) != len(wantNbs) || len(g.NeighborLinks(id)) != len(nbs) {
				t.Fatalf("view %d: process %d has neighbours %v, fresh graph has %v", i, p, nbs, wantNbs)
			}
			for k := range nbs {
				if nbs[k] != wantNbs[k] || g.NeighborLinks(id)[k] != wantG.NeighborLinks(id)[k] {
					t.Fatalf("view %d: process %d has neighbours %v over links %v, fresh graph has %v over %v", i, p,
						nbs, g.NeighborLinks(id), wantNbs, wantG.NeighborLinks(id))
				}
			}
		}
	}
}
