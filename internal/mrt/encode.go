package mrt

import (
	"fmt"

	"adaptivecast/internal/topology"
)

// Parents returns the tree as a parent vector (Parents()[v] is pred(v),
// None for the root) — the canonical serialized form used when data
// messages carry their MRT over a real transport.
func (t *Tree) Parents() []topology.NodeID {
	out := make([]topology.NodeID, len(t.parent))
	copy(out, t.parent)
	return out
}

// FromParents reconstructs a tree from a parent vector. The rebuilt tree
// spans the same nodes with the same parent/child relations; its internal
// edge ordering is the deterministic BFS order (children sorted by ID),
// which may differ from the original Prim insertion order — callers that
// ship per-edge data across the wire must key it by child node, not by
// edge index (see wire.DataMsg.AllocByNode).
//
// A non-root slot holding None is a tombstoned process (removed in an
// earlier epoch): it is excluded from the tree but keeps its slot, so
// NodeID-keyed lookups against the vector stay aligned. A node whose
// parent chain passes through a tombstoned slot is unreachable, which
// fails the spanning check like any other malformed vector.
//
// Nothing on the data path calls FromParents: a relay validates the
// carried vector with CheckParents and reads its children off it with
// NextChild. It is the oracle those two are tested against, and the
// rebuild the benchmark's replay times.
func FromParents(root topology.NodeID, parents []topology.NodeID) (*Tree, error) {
	n := len(parents)
	if n == 0 {
		return nil, fmt.Errorf("mrt: empty parent vector")
	}
	if root < 0 || int(root) >= n {
		return nil, fmt.Errorf("mrt: root %d out of range [0,%d)", root, n)
	}
	if parents[root] != topology.None {
		return nil, fmt.Errorf("mrt: root %d has parent %d", root, parents[root])
	}
	t := &Tree{
		root:     root,
		parent:   make([]topology.NodeID, n),
		children: make([][]topology.NodeID, n),
		order:    make([]topology.NodeID, 0, n),
		edgeOf:   make([]int, n),
	}
	copy(t.parent, parents)
	spanned := 1 // the root
	for v := 0; v < n; v++ {
		t.edgeOf[v] = -1
		id := topology.NodeID(v)
		if id == root {
			continue
		}
		p := parents[v]
		if p == topology.None {
			continue // tombstoned slot: not part of the tree
		}
		if p < 0 || int(p) >= n {
			return nil, fmt.Errorf("mrt: node %d has invalid parent %d", v, p)
		}
		t.children[p] = append(t.children[p], id)
		spanned++
	}
	// Child lists are already in ascending ID: v was scanned upwards.
	// BFS assigns order and edge indices; it also detects cycles and
	// unreachable nodes (both leave order short of the spanned count).
	t.order = append(t.order, root)
	for qi := 0; qi < len(t.order); qi++ {
		for _, ch := range t.children[t.order[qi]] {
			t.edgeOf[ch] = len(t.order) - 1
			t.order = append(t.order, ch)
		}
	}
	if len(t.order) != spanned {
		return nil, fmt.Errorf("mrt: parent vector is not a spanning tree (%d of %d reachable)", len(t.order), spanned)
	}
	return t, nil
}

// checkStackSlots is the vector length CheckParents marks without
// touching the heap (one bit per slot in a 512-byte stack array).
const checkStackSlots = 64 * 64

// CheckParents reports whether (root, parents) is a tree — non-empty,
// root in range and parentless, every other slot None (tombstoned) or in
// range, and every non-None slot's parent chain ending at the root, so no
// cycle and no chain through a tombstone — without building it: O(n)
// time, and no allocation up to checkStackSlots slots. It accepts exactly
// the vectors the rebuild above accepts (the package's differential and
// fuzz tests hold it to that).
func CheckParents(root topology.NodeID, parents []topology.NodeID) error {
	n := len(parents)
	if n == 0 {
		return fmt.Errorf("mrt: empty parent vector")
	}
	if root < 0 || int(root) >= n {
		return fmt.Errorf("mrt: root %d out of range [0,%d)", root, n)
	}
	if parents[root] != topology.None {
		return fmt.Errorf("mrt: root %d has parent %d", root, parents[root])
	}
	// reaches holds one bit per slot already known to reach the root. A
	// slot is walked upwards once to the first such ancestor and marked
	// on a second pass, so every slot is stepped over at most twice.
	var stack [checkStackSlots / 64]uint64
	reaches := stack[:]
	if n > checkStackSlots {
		reaches = make([]uint64, (n+63)/64)
	}
	known := func(v topology.NodeID) bool { return reaches[v>>6]&(1<<(uint(v)&63)) != 0 }
	mark := func(v topology.NodeID) { reaches[v>>6] |= 1 << (uint(v) & 63) }
	mark(root)
	for v := range parents {
		if parents[v] == topology.None {
			continue // the root, or a tombstoned slot: not part of the tree
		}
		cur := topology.NodeID(v)
		for steps := 0; !known(cur); steps++ {
			p := parents[cur]
			if p == topology.None {
				return fmt.Errorf("mrt: node %d hangs off tombstoned slot %d", v, cur)
			}
			if p < 0 || int(p) >= n {
				return fmt.Errorf("mrt: node %d has invalid parent %d", cur, p)
			}
			if steps == n {
				return fmt.Errorf("mrt: parent vector has a cycle through node %d", v)
			}
			cur = p
		}
		for cur = topology.NodeID(v); !known(cur); cur = parents[cur] {
			mark(cur)
		}
	}
	return nil
}

// NextChild returns self's lowest-numbered child above after in a parent
// vector CheckParents accepted (or Build produced), or None when there is
// none: starting from after = None it enumerates self's children in
// ascending ID, the order Tree.Children lists them in a rebuilt tree.
// self must be a real process, not None.
func NextChild(parents []topology.NodeID, self, after topology.NodeID) topology.NodeID {
	for v := int(after) + 1; v < len(parents); v++ {
		if parents[v] == self {
			return topology.NodeID(v)
		}
	}
	return topology.None
}
