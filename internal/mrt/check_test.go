package mrt

import (
	"math/rand"
	"testing"

	"adaptivecast/internal/raceflag"
	"adaptivecast/internal/topology"
)

// againstFromParents holds CheckParents and NextChild to their oracle on
// one vector: the check accepts exactly when FromParents does, and on an
// accepted vector the scan lists, for every self, the children the rebuilt
// tree lists, element for element.
func againstFromParents(t *testing.T, root topology.NodeID, parents []topology.NodeID) {
	t.Helper()
	tree, buildErr := FromParents(root, parents)
	checkErr := CheckParents(root, parents)
	if (buildErr == nil) != (checkErr == nil) {
		t.Fatalf("root %d parents %v: FromParents err = %v, CheckParents err = %v", root, parents, buildErr, checkErr)
	}
	if buildErr != nil {
		return
	}
	for self := topology.NodeID(0); int(self) < len(parents); self++ {
		want := tree.Children(self)
		i := 0
		for c := NextChild(parents, self, topology.None); c != topology.None; c = NextChild(parents, self, c) {
			if i >= len(want) || want[i] != c {
				t.Fatalf("root %d parents %v: scan child %d of %d is %d, tree lists %v", root, parents, i, self, c, want)
			}
			i++
		}
		if i != len(want) {
			t.Fatalf("root %d parents %v: scan found %d children of %d, tree lists %v", root, parents, i, self, want)
		}
	}
}

// randomTreeVector is a valid parent vector over n slots rooted at a
// random slot, with about one slot in eight tombstoned.
func randomTreeVector(rng *rand.Rand, n int) (topology.NodeID, []topology.NodeID) {
	perm := rng.Perm(n)
	parents := make([]topology.NodeID, n)
	for i := range parents {
		parents[i] = topology.None
	}
	in := []topology.NodeID{topology.NodeID(perm[0])}
	for _, v := range perm[1:] {
		if rng.Intn(8) == 0 {
			continue
		}
		parents[v] = in[rng.Intn(len(in))]
		in = append(in, topology.NodeID(v))
	}
	return in[0], parents
}

// TestCheckParentsMatchesFromParents is the differential property test:
// valid trees, each of the malformations a forged frame can carry, and
// vectors with no structure at all.
func TestCheckParentsMatchesFromParents(t *testing.T) {
	cases := 200_000
	if testing.Short() {
		cases = 20_000
	}
	rng := rand.New(rand.NewSource(17))
	accepted := 0
	for i := 0; i < cases; i++ {
		n := 1 + rng.Intn(24)
		root, parents := randomTreeVector(rng, n)
		v := topology.NodeID(rng.Intn(n))
		switch i % 8 {
		case 0: // as built
		case 1: // self-parent
			parents[v] = v
		case 2: // cycle, or a second route, through a random slot
			parents[v] = topology.NodeID(rng.Intn(n))
		case 3: // a subtree left hanging off a tombstone
			parents[v] = topology.None
		case 4: // out-of-range parent, either side
			parents[v] = topology.NodeID(n + rng.Intn(3))
			if rng.Intn(2) == 0 {
				parents[v] = topology.NodeID(-2 - rng.Intn(3))
			}
		case 5: // out-of-range root, either side
			root = topology.NodeID(n + rng.Intn(3))
			if rng.Intn(2) == 0 {
				root = topology.NodeID(-1 - rng.Intn(3))
			}
		case 6: // the root moved onto a slot that has a parent
			root = v
		case 7: // noise
			for j := range parents {
				parents[j] = topology.NodeID(rng.Intn(n+3) - 2)
			}
		}
		if CheckParents(root, parents) == nil {
			accepted++
		}
		againstFromParents(t, root, parents)
	}
	if accepted < cases/8 || accepted > cases-cases/8 {
		t.Errorf("%d of %d vectors accepted: the generator no longer exercises both verdicts", accepted, cases)
	}
	againstFromParents(t, 0, nil)
	againstFromParents(t, 0, []topology.NodeID{topology.None}) // n = 1
	againstFromParents(t, 0, []topology.NodeID{0})
}

// TestCheckParentsBeyondStackMarks runs the check where its marks no
// longer fit the stack array: a chain, then the same chain closed into a
// cycle that never touches the root.
func TestCheckParentsBeyondStackMarks(t *testing.T) {
	n := checkStackSlots + 100
	parents := make([]topology.NodeID, n)
	parents[0] = topology.None
	for v := 1; v < n; v++ {
		parents[v] = topology.NodeID(v - 1)
	}
	againstFromParents(t, 0, parents)
	if err := CheckParents(0, parents); err != nil {
		t.Fatalf("a %d-slot chain was rejected: %v", n, err)
	}
	parents[1] = topology.NodeID(n - 1)
	againstFromParents(t, 0, parents)
	if err := CheckParents(0, parents); err == nil {
		t.Fatalf("a %d-slot cycle was accepted", n-1)
	}
}

// TestAllocsCheckParents pins the receive path's structural check and
// child scan at zero allocations on a vector they accept (a rejection
// formats its error).
func TestAllocsCheckParents(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation pins do not hold under the race detector")
	}
	root, parents := randomTreeVector(rand.New(rand.NewSource(3)), 128)
	children := 0
	if got := testing.AllocsPerRun(100, func() {
		if CheckParents(root, parents) != nil {
			t.Fatal("valid vector rejected")
		}
		for c := NextChild(parents, root, topology.None); c != topology.None; c = NextChild(parents, root, c) {
			children++
		}
	}); got != 0 {
		t.Errorf("checking and scanning a 128-slot vector allocated %.1f times, want 0", got)
	}
	if children == 0 {
		t.Fatal("the root has no children: nothing was scanned")
	}
}

// FuzzCheckParents decodes arbitrary bytes into a (root, parents) pair —
// the first byte is the root as a signed value, each further byte one slot
// spread over [-2, n], so None, both out-of-range sides and every
// in-range parent are reachable — and holds it to the oracle.
func FuzzCheckParents(f *testing.F) {
	enc := func(root topology.NodeID, parents []topology.NodeID) []byte {
		b := []byte{byte(int8(root))}
		for _, p := range parents {
			b = append(b, byte(int(p)+2))
		}
		return b
	}
	f.Add([]byte{})
	f.Add(enc(0, []topology.NodeID{topology.None}))
	f.Add(enc(0, []topology.NodeID{topology.None, 0, 1, 2}))                            // chain
	f.Add(enc(2, []topology.NodeID{2, 2, topology.None, 2}))                            // star
	f.Add(enc(0, []topology.NodeID{topology.None, 2, 1}))                               // cycle off the root
	f.Add(enc(0, []topology.NodeID{topology.None, 1}))                                  // self-parent
	f.Add(enc(0, []topology.NodeID{topology.None, topology.None, 1}))                   // hangs off a tombstone
	f.Add(enc(0, []topology.NodeID{topology.None, 2}))                                  // parent out of range
	f.Add(enc(5, []topology.NodeID{topology.None, 0}))                                  // root out of range
	f.Add(enc(-1, []topology.NodeID{topology.None, 0}))                                 // root None
	f.Add(enc(0, []topology.NodeID{1, 0}))                                              // root with a parent
	f.Add(enc(1, []topology.NodeID{1, topology.None, 0, 2, topology.None, 3, -2}))      // parent below None
	f.Add(enc(3, []topology.NodeID{3, 0, 0, topology.None, topology.None, 1, 1, 2, 2})) // tombstone beside a tree
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 {
			againstFromParents(t, 0, nil)
			return
		}
		n := len(b) - 1
		parents := make([]topology.NodeID, n)
		for i, x := range b[1:] {
			parents[i] = topology.NodeID(int(x)%(n+3) - 2)
		}
		againstFromParents(t, topology.NodeID(int8(b[0])), parents)
	})
}
