package knowledge

import (
	"math"
	"math/rand"
	"testing"

	"adaptivecast/internal/raceflag"
	"adaptivecast/internal/topology"
)

// TestInternerMatchesMap is a differential test of the link index
// against a map: random links with endpoints up to MaxUint32, many
// interned more than once, get their first-sight index, Link returns
// them, and links never interned (or outside the ID space) look up as
// -1.
func TestInternerMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	endpoint := func() topology.NodeID {
		switch rng.Intn(4) {
		case 0:
			return topology.NodeID(rng.Intn(64)) // dense: many repeats
		case 1:
			return topology.NodeID(math.MaxUint32 - rng.Intn(4))
		}
		return topology.NodeID(rng.Int63n(math.MaxUint32 + 1))
	}
	in, want := NewInterner(), map[topology.Link]int{}
	var order []topology.Link
	for step := 0; step < 20_000; step++ {
		l := topology.NewLink(endpoint(), endpoint())
		idx, seen := want[l]
		if rng.Intn(3) == 0 {
			if !seen {
				idx = -1
			}
			if got := in.Lookup(l); got != idx {
				t.Fatalf("step %d: Lookup(%v) = %d, want %d", step, l, got, idx)
			}
			continue
		}
		if !seen {
			idx = len(order)
			want[l] = idx
			order = append(order, l)
		}
		if got := in.Intern(l); got != idx {
			t.Fatalf("step %d: Intern(%v) = %d, want %d", step, l, got, idx)
		}
	}
	if in.Len() != len(order) {
		t.Fatalf("Len() = %d, want %d", in.Len(), len(order))
	}
	for i, l := range order {
		if in.Link(i) != l || in.Lookup(l) != i {
			t.Fatalf("index %d: Link = %v, Lookup = %d; want %v and %d", i, in.Link(i), in.Lookup(l), l, i)
		}
	}
	for _, l := range []topology.Link{{A: -1, B: 3}, {A: 2, B: math.MaxUint32 + 1}} {
		if got := in.Lookup(l); got != -1 {
			t.Errorf("Lookup(%v) outside the ID space = %d, want -1", l, got)
		}
	}
	if got := NewInterner().Lookup(topology.NewLink(0, 1)); got != -1 {
		t.Errorf("Lookup on an empty interner = %d, want -1", got)
	}
	for _, l := range []topology.Link{{A: -1, B: 3}, {A: 2, B: math.MaxUint32 + 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intern(%v) outside the ID space did not panic", l)
				}
			}()
			in.Intern(l)
		}()
	}
	if in.Len() != len(order) {
		t.Errorf("a refused Intern changed Len to %d, want %d", in.Len(), len(order))
	}
}

// TestAllocsInternKnownLink pins the link index's hot path: interning
// or looking up a link already known allocates nothing.
func TestAllocsInternKnownLink(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation pins do not hold under the race detector")
	}
	in := NewInterner()
	var links []topology.Link
	for a := topology.NodeID(0); a < 128; a++ {
		for _, d := range []topology.NodeID{1, 2} {
			l := topology.NewLink(a, (a+d)%128)
			in.Intern(l)
			links = append(links, l)
		}
	}
	if got := testing.AllocsPerRun(20, func() {
		for i, l := range links {
			if in.Intern(l) != i || in.Lookup(l) != i {
				t.Fatalf("link %v lost its index %d", l, i)
			}
		}
	}); got != 0 {
		t.Errorf("interning and looking up %d known links allocates %v times, want 0", len(links), got)
	}
}
