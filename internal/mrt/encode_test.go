package mrt

import (
	"math/rand"
	"testing"

	"adaptivecast/internal/config"
	"adaptivecast/internal/topology"
)

func TestParentsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g, err := topology.RandomConnected(20, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	c, err := config.Uniform(g, 0.02, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Build(g, c, 5)
	if err != nil {
		t.Fatal(err)
	}

	rebuilt, err := FromParents(tree.Root(), tree.Parents())
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.Root() != tree.Root() || rebuilt.NumNodes() != tree.NumNodes() {
		t.Fatal("shape mismatch after round trip")
	}
	for v := 0; v < tree.NumNodes(); v++ {
		if rebuilt.Parent(topology.NodeID(v)) != tree.Parent(topology.NodeID(v)) {
			t.Errorf("parent of %d changed: %d vs %d",
				v, tree.Parent(topology.NodeID(v)), rebuilt.Parent(topology.NodeID(v)))
		}
	}
	if err := rebuilt.Validate(g); err != nil {
		t.Fatal(err)
	}
	// Child lists come out in ascending ID with no sort: the order a relay
	// scanning the vector forwards in.
	for v := 0; v < rebuilt.NumNodes(); v++ {
		ch := rebuilt.Children(topology.NodeID(v))
		for i := 1; i < len(ch); i++ {
			if ch[i-1] >= ch[i] {
				t.Fatalf("children of %d not ascending: %v", v, ch)
			}
		}
	}
	// Edge indices are internally consistent even if ordered differently.
	for i := 0; i < rebuilt.NumEdges(); i++ {
		if rebuilt.EdgeOf(rebuilt.EdgeChild(i)) != i {
			t.Fatalf("edge index inconsistency at %d", i)
		}
	}
}

func TestFromParentsRejectsMalformed(t *testing.T) {
	if _, err := FromParents(0, nil); err == nil {
		t.Error("empty vector should fail")
	}
	if _, err := FromParents(5, []topology.NodeID{topology.None, 0}); err == nil {
		t.Error("out-of-range root should fail")
	}
	if _, err := FromParents(0, []topology.NodeID{1, 0}); err == nil {
		t.Error("root with a parent should fail")
	}
	// A non-root None slot is a tombstoned (departed) process, not an
	// error: the tree spans only the remaining nodes.
	if tomb, err := FromParents(0, []topology.NodeID{topology.None, topology.None}); err != nil {
		t.Errorf("tombstoned slot should be accepted: %v", err)
	} else if tomb.NumEdges() != 0 || tomb.NumNodes() != 2 {
		t.Errorf("tombstoned vector: %d edges over %d slots, want 0 over 2", tomb.NumEdges(), tomb.NumNodes())
	}
	// A node whose parent chain runs through a tombstoned slot is
	// unreachable and still rejected.
	if _, err := FromParents(0, []topology.NodeID{topology.None, topology.None, 1}); err == nil {
		t.Error("child of tombstoned slot should fail")
	}
	if _, err := FromParents(0, []topology.NodeID{topology.None, 9}); err == nil {
		t.Error("out-of-range parent should fail")
	}
	// Cycle: 1 -> 2 -> 1 disconnected from root 0.
	if _, err := FromParents(0, []topology.NodeID{topology.None, 2, 1}); err == nil {
		t.Error("cycle should fail")
	}
}
