package knowledge

import (
	"testing"

	"adaptivecast/internal/topology"
)

// agingLine builds the 0-1-2 line views and pushes node 2's state into
// node 1, so a merge from 1 into 0 supplies second-hand records (process
// 2 and link 1-2) whose aging the tests below clock.
func agingLine(t *testing.T) (v0, v1 *View) {
	t.Helper()
	in := NewInterner()
	v0, err := NewView(0, 3, []topology.NodeID{1}, in, Params{})
	if err != nil {
		t.Fatal(err)
	}
	v1, err = NewView(1, 3, []topology.NodeID{0, 2}, in, Params{})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := NewView(2, 3, []topology.NodeID{1}, in, Params{})
	if err != nil {
		t.Fatal(err)
	}
	v2.BeginPeriod()
	if err := v1.MergeFrom(2, v2.SelfSeq(), v2); err != nil {
		t.Fatal(err)
	}
	v1.BeginPeriod()
	return v0, v1
}

// periodsToProcBump counts BeginPeriod calls on v0 until the distortion
// of its process-2 record increases past start.
func periodsToProcBump(t *testing.T, v0 *View, start int) int {
	t.Helper()
	for p := 1; p <= 512; p++ {
		v0.BeginPeriod()
		if _, d := v0.CrashEstimate(2); d > start {
			return p
		}
	}
	t.Fatal("non-neighbor estimate never aged")
	return 0
}

// TestNonNeighborAgingScalesWithSupplierCadence pins the cadence-aware
// flavor of Event-2 aging: a second-hand process estimate decays on the
// clock of the neighbor that supplies it. A supplier that declared a 4x
// stretched cadence can only deliver refreshes a quarter as often, so
// the copy must take 4x as long to be considered stale.
func TestNonNeighborAgingScalesWithSupplierCadence(t *testing.T) {
	v0, v1 := agingLine(t)
	if err := v0.MergeFromAt(1, v1.SelfSeq(), 1, v1); err != nil {
		t.Fatal(err)
	}
	_, start := v0.CrashEstimate(2)
	base := periodsToProcBump(t, v0, start)

	v0s, v1s := agingLine(t)
	if err := v0s.MergeFromAt(1, v1s.SelfSeq(), 4, v1s); err != nil {
		t.Fatal(err)
	}
	_, startS := v0s.CrashEstimate(2)
	if startS != start {
		t.Fatalf("adoption distortion differs across runs: %d vs %d", startS, start)
	}
	stretched := periodsToProcBump(t, v0s, startS)

	if stretched != 4*base {
		t.Errorf("aging under a 4x-stretched supplier took %d periods, want %d (4 x %d)",
			stretched, 4*base, base)
	}
}

// TestRemoteLinkAgingScalesWithSupplierCadence: remote link copies decay
// after LinkAgeTimeout quiet periods on the supplier's declared clock,
// while incident (self-measured, distortion-0) links never age.
func TestRemoteLinkAgingScalesWithSupplierCadence(t *testing.T) {
	remote := topology.NewLink(1, 2)
	incident := topology.NewLink(0, 1)

	clockToBump := func(cadence int) int {
		v0, v1 := agingLine(t)
		if err := v0.MergeFromAt(1, v1.SelfSeq(), cadence, v1); err != nil {
			t.Fatal(err)
		}
		_, start, ok := v0.LossEstimate(remote)
		if !ok {
			t.Fatal("remote link not adopted")
		}
		for p := 1; p <= 4096; p++ {
			v0.BeginPeriod()
			if _, d, _ := v0.LossEstimate(remote); d > start {
				// The incident link must still be pristine.
				if _, di, ok := v0.LossEstimate(incident); !ok || di != 0 {
					t.Fatalf("incident link aged alongside the remote one (dist %d)", di)
				}
				return p
			}
		}
		t.Fatal("remote link never aged")
		return 0
	}

	base := clockToBump(1)
	stretched := clockToBump(4)
	if stretched != 4*base {
		t.Errorf("link aging under a 4x-stretched supplier took %d periods, want %d (4 x %d)",
			stretched, 4*base, base)
	}
}

// TestLinkAgingNeverSetsDirty: distortion decay of a remote link is
// local confidence bookkeeping, not news — it must not flip the record's
// wire signature to dirty, or every aging step would defeat delta
// suppression and adaptive cadence across the whole neighborhood.
func TestLinkAgingNeverSetsDirty(t *testing.T) {
	v0, v1 := agingLine(t)
	if err := v0.MergeFromAt(1, v1.SelfSeq(), 1, v1); err != nil {
		t.Fatal(err)
	}
	remote := topology.NewLink(1, 2)
	_, start, ok := v0.LossEstimate(remote)
	if !ok {
		t.Fatal("remote link not adopted")
	}
	ls := v0.link(v0.interner.Lookup(remote))
	if ls == nil {
		t.Fatal("remote link state not found")
	}
	ls.dirty = false // clear the adoption-time mark, then age
	aged := false
	for p := 0; p < 256 && !aged; p++ {
		v0.BeginPeriod()
		_, d, _ := v0.LossEstimate(remote)
		aged = d > start
	}
	if !aged {
		t.Fatal("remote link never aged")
	}
	if ls.dirty {
		t.Error("link aging set the dirty bit — decay must ride the next re-ship, not force one")
	}
}
