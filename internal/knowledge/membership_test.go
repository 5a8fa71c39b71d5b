package knowledge

import (
	"testing"

	"adaptivecast/internal/topology"
)

// TestGrowAddsPriorProcesses pins View.Grow: new processes start from
// the uniform prior at infinite distortion and the version bumps so plan
// caches invalidate.
func TestGrowAddsPriorProcesses(t *testing.T) {
	v, err := NewView(0, 3, []topology.NodeID{1}, nil, Params{Intervals: 8})
	if err != nil {
		t.Fatal(err)
	}
	before := v.Version()
	v.Grow(5)
	if v.NumProcs() != 5 {
		t.Fatalf("NumProcs = %d after Grow(5)", v.NumProcs())
	}
	if v.Version() == before {
		t.Error("Grow did not bump the view version")
	}
	if mean, dist := v.CrashEstimate(4); dist != DistInf || mean != 0.5 {
		t.Errorf("new process estimate = (%v, %d), want uniform prior at DistInf", mean, dist)
	}
	// Shrinking is not a thing; Grow to a smaller n is a no-op.
	at := v.Version()
	v.Grow(2)
	if v.NumProcs() != 5 || v.Version() != at {
		t.Error("Grow to a smaller n must be a no-op")
	}
}

// TestMarkDepartedTombstones pins the tombstone invariants: departed
// records vanish from snapshots and deltas, their links are forgotten,
// inbound records cannot resurrect them, and BeginPeriod never suspects
// them again.
func TestMarkDepartedTombstones(t *testing.T) {
	mk := func() (*View, *View) {
		interner := NewInterner()
		a, err := NewView(0, 3, []topology.NodeID{1, 2}, interner, Params{Intervals: 8})
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewView(1, 3, []topology.NodeID{0, 2}, interner, Params{Intervals: 8})
		if err != nil {
			t.Fatal(err)
		}
		// Exchange a few heartbeats so everyone holds records for 2.
		for i := 0; i < 3; i++ {
			a.BeginPeriod()
			b.BeginPeriod()
			if err := a.MergeSnapshot(b.Snapshot()); err != nil {
				t.Fatal(err)
			}
			if err := b.MergeSnapshot(a.Snapshot()); err != nil {
				t.Fatal(err)
			}
		}
		return a, b
	}

	a, b := mk()
	base := a.Version()
	a.BeginPeriod()
	a.MarkDeparted(2)
	if !a.Departed(2) {
		t.Fatal("MarkDeparted did not tombstone")
	}
	if a.IsNeighbor(2) {
		t.Error("departed process still a neighbor")
	}
	for _, l := range a.KnownLinks() {
		if l.A == 2 || l.B == 2 {
			t.Errorf("departed process's link %v still known", l)
		}
	}
	snap := a.Snapshot()
	for _, pr := range snap.Procs {
		if pr.ID == 2 {
			t.Error("snapshot carries a departed record")
		}
	}
	if d, ok := a.DeltaSince(base); ok {
		for _, pr := range d.Procs {
			if pr.ID == 2 {
				t.Error("delta carries a departed record")
			}
		}
		for _, lr := range d.Links {
			if lr.Link.A == 2 || lr.Link.B == 2 {
				t.Errorf("delta carries departed link %v", lr.Link)
			}
		}
	}

	// A stale peer still shipping records about 2 must not resurrect it.
	if err := a.MergeSnapshot(b.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if _, dist := a.CrashEstimate(2); dist != DistInf && !a.Departed(2) {
		t.Error("merge resurrected a departed process")
	}
	if !a.Departed(2) {
		t.Error("merge cleared the tombstone")
	}
	for _, l := range a.KnownLinks() {
		if l.A == 2 || l.B == 2 {
			t.Errorf("merge re-learned departed link %v", l)
		}
	}

	// Aging/suspicion: many quiet periods must never suspect a tombstone.
	for i := 0; i < 50; i++ {
		a.BeginPeriod()
	}
	if a.Suspected(2) {
		t.Error("departed process suspected")
	}

	// The estimated configuration routes around the tombstone.
	g, _, err := a.EstimatedConfig()
	if err != nil {
		t.Fatal(err)
	}
	if g.Active(2) {
		t.Error("estimated config keeps the departed process active")
	}

	// Snapshots from a departed sender are rejected outright.
	a2, b2 := mk()
	_ = b2
	a2.MarkDeparted(1)
	if err := a2.MergeSnapshot(&Snapshot{From: 1, Seq: 99}); err == nil {
		t.Error("snapshot from a departed sender should be rejected")
	}
}

// TestAddNeighborLearnsLink pins the joiner path: the new link is known
// with zero distortion before any heartbeat crosses it, and re-adding is
// a no-op.
func TestAddNeighborLearnsLink(t *testing.T) {
	v, err := NewView(0, 3, []topology.NodeID{1}, nil, Params{Intervals: 8})
	if err != nil {
		t.Fatal(err)
	}
	v.Grow(4)
	if err := v.AddNeighbor(3); err != nil {
		t.Fatal(err)
	}
	if !v.IsNeighbor(3) {
		t.Error("AddNeighbor did not register the neighbor")
	}
	if _, dist, ok := v.LossEstimate(topology.NewLink(0, 3)); !ok || dist != 0 {
		t.Errorf("joiner link estimate (ok=%v, dist=%d), want known at distortion 0", ok, dist)
	}
	ver := v.Version()
	if err := v.AddNeighbor(3); err != nil {
		t.Fatal(err)
	}
	if v.Version() != ver {
		t.Error("re-adding an existing neighbor bumped the version")
	}
	if err := v.AddNeighbor(0); err == nil {
		t.Error("self neighbor should fail")
	}
	v.MarkDeparted(2)
	if err := v.AddNeighbor(2); err == nil {
		t.Error("departed neighbor should fail")
	}
}
