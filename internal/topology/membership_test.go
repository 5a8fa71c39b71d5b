package topology

import (
	"math/rand"
	"testing"

	"adaptivecast/internal/raceflag"
)

// TestAddRemoveNodeEpochs covers the mutable growth path: dense ID
// assignment, tombstoning, link cleanup and epoch accounting.
func TestAddRemoveNodeEpochs(t *testing.T) {
	g, err := Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	if g.Epoch() != 0 {
		t.Fatalf("generated topology at epoch %d, want 0", g.Epoch())
	}

	id := g.AddNode()
	if id != 4 {
		t.Fatalf("AddNode assigned %d, want 4", id)
	}
	if g.Epoch() != 1 || g.NumNodes() != 5 || g.NumActive() != 5 {
		t.Fatalf("after add: epoch=%d nodes=%d active=%d", g.Epoch(), g.NumNodes(), g.NumActive())
	}
	if _, err := g.AddLink(id, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddLink(id, 2); err != nil {
		t.Fatal(err)
	}
	if !g.Connected() {
		t.Fatal("grown graph should be connected")
	}

	// Remove node 1: its two ring links disappear, the ID is tombstoned
	// and never reused, and the epoch advances exactly once.
	before := g.Epoch()
	if err := g.RemoveNode(1); err != nil {
		t.Fatal(err)
	}
	if g.Epoch() != before+1 {
		t.Errorf("RemoveNode bumped epoch by %d, want 1", g.Epoch()-before)
	}
	if g.Active(1) || g.NumActive() != 4 || g.NumNodes() != 5 {
		t.Errorf("after remove: active(1)=%v active=%d nodes=%d", g.Active(1), g.NumActive(), g.NumNodes())
	}
	if g.Degree(1) != 0 || g.HasLink(0, 1) || g.HasLink(1, 2) {
		t.Error("tombstoned node still has links")
	}
	if !g.Connected() {
		t.Error("survivors should stay connected (0-4-2-3 ring segment)")
	}
	if next := g.AddNode(); next != 5 {
		t.Errorf("ID after removal = %d, want 5 (no reuse)", next)
	}

	// Invalid operations.
	if err := g.RemoveNode(1); err == nil {
		t.Error("double removal should fail")
	}
	if _, err := g.AddLink(0, 1); err == nil {
		t.Error("linking to a tombstoned node should fail")
	}
	if g.Active(99) {
		t.Error("out-of-range ID should not be active")
	}
}

// TestRemoveLinkIndexMaintenance pins the swap-removal contract: the
// dense link index stays compacted, adjacency stays sorted and aligned,
// and the reported (removedIdx, movedIdx) pair lets aligned state mirror
// the move.
func TestRemoveLinkIndexMaintenance(t *testing.T) {
	g := New(5)
	links := [][2]NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}
	for _, l := range links {
		if _, err := g.AddLink(l[0], l[1]); err != nil {
			t.Fatal(err)
		}
	}

	// Remove a middle link: the last link must move into its slot.
	removed, moved, err := g.RemoveLink(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 || moved != 4 {
		t.Fatalf("RemoveLink reported (removed=%d, moved=%d), want (1, 4)", removed, moved)
	}
	if g.NumLinks() != 4 {
		t.Fatalf("NumLinks = %d, want 4", g.NumLinks())
	}
	if g.HasLink(1, 2) {
		t.Error("removed link still present")
	}
	// The moved link (4,0) must be fully reindexed.
	if idx := g.LinkIndex(4, 0); idx != 1 {
		t.Errorf("moved link index = %d, want 1", idx)
	}
	for v := NodeID(0); v < 5; v++ {
		nbs, idxs := g.Neighbors(v), g.NeighborLinks(v)
		for k, nb := range nbs {
			l := g.Link(idxs[k])
			if l != NewLink(v, nb) {
				t.Errorf("node %d adjacency slot %d points at link %v, want %v", v, k, l, NewLink(v, nb))
			}
		}
	}

	// Removing the (now) last link reports no move.
	removed, moved, err = g.RemoveLink(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if moved != -1 {
		t.Errorf("tail removal reported moved=%d, want -1", moved)
	}
	if _, _, err := g.RemoveLink(3, 4); err == nil {
		t.Error("double link removal should fail")
	}
}

// TestCloneKeepsMembership verifies tombstones, epochs and link indices
// survive Clone.
func TestCloneKeepsMembership(t *testing.T) {
	g, err := Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	g.AddNode()
	if _, err := g.AddLink(4, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.RemoveNode(2); err != nil {
		t.Fatal(err)
	}
	c := g.Clone()
	if c.Epoch() != g.Epoch() || c.NumActive() != g.NumActive() || c.NumLinks() != g.NumLinks() {
		t.Fatalf("clone drifted: epoch %d/%d active %d/%d links %d/%d",
			c.Epoch(), g.Epoch(), c.NumActive(), g.NumActive(), c.NumLinks(), g.NumLinks())
	}
	if c.Active(2) {
		t.Error("clone lost the tombstone")
	}
	for i := 0; i < g.NumLinks(); i++ {
		if c.Link(i) != g.Link(i) {
			t.Errorf("clone link %d = %v, want %v", i, c.Link(i), g.Link(i))
		}
	}
}

// TestResetMatchesNew: a graph that was larger, was mutated by every
// membership operation and is then Reset behaves like New(n) — no node,
// link, tombstone, epoch or adjacency entry of its past shows — and a
// refill of the shape it last held allocates nothing.
func TestResetMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := New(0)
	for i := 0; i < 100; i++ {
		// A past life: random links, a grown node, a removed link and node.
		n := 4 + rng.Intn(40)
		g.Reset(n + rng.Intn(20))
		for j := 0; j < 3*n; j++ {
			_, _ = g.AddLink(NodeID(rng.Intn(g.NumNodes())), NodeID(rng.Intn(g.NumNodes())))
		}
		extra := g.AddNode()
		mustAdd(t, g, extra, 0)
		if _, _, err := g.RemoveLink(g.Link(0).A, g.Link(0).B); err != nil {
			t.Fatal(err)
		}
		if err := g.RemoveNode(NodeID(1 + rng.Intn(3))); err != nil {
			t.Fatal(err)
		}

		g.Reset(n)
		want := New(n)
		for j := 0; j < 2*n; j++ {
			a, b := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			gi, gerr := g.AddLink(a, b)
			wi, werr := want.AddLink(a, b)
			if gi != wi || (gerr == nil) != (werr == nil) {
				t.Fatalf("round %d: AddLink(%d,%d) = %d, %v on the reset graph; %d, %v on a new one", i, a, b, gi, gerr, wi, werr)
			}
		}
		if g.NumNodes() != n || g.NumActive() != n || g.Epoch() != 0 || g.NumLinks() != want.NumLinks() || g.Connected() != want.Connected() {
			t.Fatalf("round %d: reset graph has %d nodes (%d active), %d links, epoch %d; a new one %d, %d, 0",
				i, g.NumNodes(), g.NumActive(), g.NumLinks(), g.Epoch(), n, want.NumLinks())
		}
		for v := 0; v < n; v++ {
			nbs, wantNbs := g.Neighbors(NodeID(v)), want.Neighbors(NodeID(v))
			if len(nbs) != len(wantNbs) || len(g.NeighborLinks(NodeID(v))) != len(nbs) {
				t.Fatalf("round %d: node %d has neighbours %v over links %v, a new graph has %v", i, v, nbs, g.NeighborLinks(NodeID(v)), wantNbs)
			}
			for k := range nbs {
				if nbs[k] != wantNbs[k] || g.NeighborLinks(NodeID(v))[k] != want.NeighborLinks(NodeID(v))[k] {
					t.Fatalf("round %d: node %d has neighbours %v over links %v, a new graph has %v over %v",
						i, v, nbs, g.NeighborLinks(NodeID(v)), wantNbs, want.NeighborLinks(NodeID(v)))
				}
			}
		}
	}
}

// TestAllocsReset: refilling a graph with the shape it last held reuses
// the link list, the link map and every adjacency list.
func TestAllocsReset(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation pins do not hold under the race detector")
	}
	shape, err := RandomConnected(128, 4, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	g := New(0)
	fill := func() {
		g.Reset(shape.NumNodes())
		for _, l := range shape.Links() {
			if _, err := g.AddLink(l.A, l.B); err != nil {
				t.Fatal(err)
			}
		}
	}
	fill()
	if got := testing.AllocsPerRun(20, fill); got != 0 {
		t.Errorf("refilling %d links over %d nodes allocated %.0f times, want 0", shape.NumLinks(), shape.NumNodes(), got)
	}
}
