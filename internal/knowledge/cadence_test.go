package knowledge

import (
	"testing"

	"adaptivecast/internal/topology"
)

// observations counts the evidence an estimator holds beyond its prior
// (success + failure observations).
func linkObservations(v *View, l topology.Link) int {
	est := v.LinkEstimator(l)
	if est == nil {
		return 0
	}
	return est.Observations()
}

// TestCadenceScalesSuspicionTimeout pins the Event 2 side of the
// adaptive-cadence contract: a neighbor that declared a cadence of c
// periods must only be suspected after timeout·c quiet periods, while an
// undeclared (classic) neighbor keeps the unscaled timeout.
func TestCadenceScalesSuspicionTimeout(t *testing.T) {
	const cad = 4
	a, b := newPair(t)
	b.BeginPeriod()
	if err := a.MergeSnapshotAt(b.Snapshot(), cad); err != nil {
		t.Fatal(err)
	}
	if got := a.NeighborCadence(1); got != cad {
		t.Fatalf("declared cadence = %d, want %d", got, cad)
	}

	// Default InitialTimeout is 2 periods; with cadence 4 the neighbor may
	// stay quiet through 2*4 = 8 periods before Event 2 fires.
	for p := 0; p < cad*2-1; p++ {
		a.BeginPeriod()
		if a.Suspected(1) {
			t.Fatalf("neighbor suspected after %d quiet periods despite cadence %d", p+1, cad)
		}
	}
	a.BeginPeriod()
	if !a.Suspected(1) {
		t.Error("neighbor not suspected after timeout*cadence quiet periods")
	}
	if !a.AnySuspected() {
		t.Error("AnySuspected does not reflect the suspicion")
	}

	// A classic neighbor (no declaration) on a fresh pair is suspected
	// after the plain timeout.
	c, d := newPair(t)
	d.BeginPeriod()
	if err := c.MergeSnapshot(d.Snapshot()); err != nil {
		t.Fatal(err)
	}
	c.BeginPeriod()
	if c.Suspected(1) {
		t.Fatal("classic neighbor suspected before its timeout")
	}
	c.BeginPeriod()
	if !c.Suspected(1) {
		t.Error("classic neighbor not suspected after the unscaled timeout")
	}
}

// TestCadenceScalesGapLossAccounting pins the Event 1 side: under a
// declared cadence c, a sequence gap of c between consecutive frames is
// the promised spacing (zero losses), a gap of 2c is exactly one lost
// frame, and an early snap-back frame (gap < c) books nothing.
func TestCadenceScalesGapLossAccounting(t *testing.T) {
	const cad = 4
	link := topology.NewLink(0, 1)
	a, b := newPair(t)

	// Frame 1 declares the stretch; it is first contact, so no gap
	// evidence — just the success for the frame itself.
	for i := 0; i < cad; i++ {
		b.BeginPeriod() // the sender consumes one seq per period regardless
	}
	if err := a.MergeSnapshotAt(b.Snapshot(), cad); err != nil {
		t.Fatal(err)
	}
	base := linkObservations(a, link)

	// Frame 2 arrives exactly on the promise (gap == cad): one success,
	// zero failures.
	for i := 0; i < cad; i++ {
		b.BeginPeriod()
	}
	if err := a.MergeSnapshotAt(b.Snapshot(), cad); err != nil {
		t.Fatal(err)
	}
	if got := linkObservations(a, link) - base; got != 1 {
		t.Errorf("on-promise frame booked %d observations, want 1 (success only)", got)
	}
	base = linkObservations(a, link)

	// Frame 3 arrives after a double gap (gap == 2*cad): the skipped
	// frame is exactly one loss, plus the success for this frame.
	for i := 0; i < 2*cad; i++ {
		b.BeginPeriod()
	}
	if err := a.MergeSnapshotAt(b.Snapshot(), cad); err != nil {
		t.Fatal(err)
	}
	if got := linkObservations(a, link) - base; got != 2 {
		t.Errorf("double-gap frame booked %d observations, want 2 (one loss + one success)", got)
	}
	base = linkObservations(a, link)

	// Snap-back: the sender breaks its promise and sends the very next
	// period, declaring cadence 1 again. Early frames book no loss.
	b.BeginPeriod()
	if err := a.MergeSnapshotAt(b.Snapshot(), 1); err != nil {
		t.Fatal(err)
	}
	if got := linkObservations(a, link) - base; got != 1 {
		t.Errorf("snap-back frame booked %d observations, want 1 (success only)", got)
	}
	if got := a.NeighborCadence(1); got != 1 {
		t.Errorf("cadence after snap-back = %d, want 1", got)
	}

	// Under classic cadence the old accounting is untouched: a gap of 4
	// periods is 3 losses + 1 success.
	base = linkObservations(a, link)
	for i := 0; i < 4; i++ {
		b.BeginPeriod()
	}
	if err := a.MergeSnapshot(b.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if got := linkObservations(a, link) - base; got != 4 {
		t.Errorf("classic gap-4 frame booked %d observations, want 4 (3 losses + 1 success)", got)
	}
}

// TestCadenceDeclarationClamped keeps a hostile declaration from
// suppressing failure detection forever.
func TestCadenceDeclarationClamped(t *testing.T) {
	a, b := newPair(t)
	b.BeginPeriod()
	if err := a.MergeSnapshotAt(b.Snapshot(), 1<<20); err != nil {
		t.Fatal(err)
	}
	if got := a.NeighborCadence(1); got != maxDeclaredCadence {
		t.Errorf("declared cadence clamped to %d, want %d", got, maxDeclaredCadence)
	}
	if err := a.MergeSnapshotAt(b.Snapshot(), -3); err != nil {
		t.Fatal(err)
	}
	if got := a.NeighborCadence(1); got != 1 {
		t.Errorf("negative declaration normalized to %d, want 1", got)
	}
}
