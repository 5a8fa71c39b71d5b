package config

import (
	"math"
	"testing"
	"testing/quick"

	"adaptivecast/internal/topology"
)

func ring(t *testing.T, n int) *topology.Graph {
	t.Helper()
	g, err := topology.Ring(n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewAllZero(t *testing.T) {
	g := ring(t, 5)
	c := New(g)
	for i := 0; i < 5; i++ {
		if c.Crash(topology.NodeID(i)) != 0 {
			t.Errorf("crash[%d] = %v, want 0", i, c.Crash(topology.NodeID(i)))
		}
	}
	for i := 0; i < g.NumLinks(); i++ {
		if c.Loss(i) != 0 {
			t.Errorf("loss[%d] = %v, want 0", i, c.Loss(i))
		}
	}
}

func TestUniform(t *testing.T) {
	g := ring(t, 5)
	c, err := Uniform(g, 0.03, 0.07)
	if err != nil {
		t.Fatal(err)
	}
	if c.Crash(2) != 0.03 {
		t.Errorf("crash = %v, want 0.03", c.Crash(2))
	}
	l, err := c.LossBetween(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if l != 0.07 {
		t.Errorf("loss = %v, want 0.07", l)
	}
}

func TestUniformRejectsBadProbabilities(t *testing.T) {
	g := ring(t, 4)
	for _, bad := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := Uniform(g, bad, 0); err == nil {
			t.Errorf("Uniform crash=%v should fail", bad)
		}
		if _, err := Uniform(g, 0, bad); err == nil {
			t.Errorf("Uniform loss=%v should fail", bad)
		}
	}
}

func TestSetters(t *testing.T) {
	g := ring(t, 4)
	c := New(g)
	if err := c.SetCrash(1, 0.2); err != nil {
		t.Fatal(err)
	}
	if c.Crash(1) != 0.2 {
		t.Errorf("crash = %v, want 0.2", c.Crash(1))
	}
	if err := c.SetCrash(1, 2); err == nil {
		t.Error("SetCrash(2.0) should fail")
	}
	if err := c.SetLossBetween(0, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	l, err := c.LossBetween(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if l != 0.5 {
		t.Errorf("loss = %v, want 0.5", l)
	}
	if err := c.SetLossBetween(0, 2, 0.5); err == nil {
		t.Error("SetLossBetween on a missing link should fail")
	}
	if err := c.SetLoss(-1, 0.5); err == nil {
		t.Error("SetLoss(-1) should fail")
	}
	if err := c.SetLoss(0, -0.5); err == nil {
		t.Error("SetLoss negative probability should fail")
	}
}

func TestLossBetweenMissingLink(t *testing.T) {
	g := ring(t, 5)
	c := New(g)
	if _, err := c.LossBetween(0, 2); err == nil {
		t.Error("expected error for missing link")
	}
}

func TestEdgeReliabilityAndLambda(t *testing.T) {
	g := ring(t, 4)
	c := New(g)
	if err := c.SetCrash(0, 0.1); err != nil {
		t.Fatal(err)
	}
	if err := c.SetCrash(1, 0.2); err != nil {
		t.Fatal(err)
	}
	if err := c.SetLossBetween(0, 1, 0.25); err != nil {
		t.Fatal(err)
	}
	rel, err := c.EdgeReliability(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.9 * 0.75 * 0.8
	if math.Abs(rel-want) > 1e-12 {
		t.Errorf("reliability = %v, want %v", rel, want)
	}
	lam, err := c.Lambda(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lam-(1-want)) > 1e-12 {
		t.Errorf("lambda = %v, want %v", lam, 1-want)
	}
	// Symmetric in the endpoints for an undirected edge weight.
	rel2, err := c.EdgeReliability(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rel2 != rel {
		t.Errorf("reliability not symmetric: %v vs %v", rel, rel2)
	}
	if _, err := c.EdgeReliability(0, 2); err == nil {
		t.Error("expected error for missing link")
	}
}

func TestClone(t *testing.T) {
	g := ring(t, 4)
	c, err := Uniform(g, 0.1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	d := c.Clone()
	if err := d.SetCrash(0, 0.9); err != nil {
		t.Fatal(err)
	}
	if c.Crash(0) != 0.1 {
		t.Error("mutating clone leaked into original")
	}
	if d.Graph() != g {
		t.Error("clone should share the graph")
	}
}

func TestMaxAbsDiff(t *testing.T) {
	g := ring(t, 4)
	a, err := Uniform(g, 0.1, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	b := a.Clone()
	if err := b.SetCrash(2, 0.15); err != nil {
		t.Fatal(err)
	}
	if err := b.SetLoss(1, 0.3); err != nil {
		t.Fatal(err)
	}
	d, err := a.MaxAbsDiff(b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-0.1) > 1e-12 {
		t.Errorf("MaxAbsDiff = %v, want 0.1", d)
	}

	other := New(ring(t, 5))
	if _, err := a.MaxAbsDiff(other); err == nil {
		t.Error("expected shape mismatch error")
	}
}

// Property: reliability is within [0,1] and Lambda is its exact complement
// for arbitrary valid probabilities.
func TestLambdaComplementProperty(t *testing.T) {
	g := ring(t, 3)
	f := func(pRaw, qRaw, lRaw uint16) bool {
		p := float64(pRaw) / 65535
		q := float64(qRaw) / 65535
		l := float64(lRaw) / 65535
		c := New(g)
		if err := c.SetCrash(0, p); err != nil {
			return false
		}
		if err := c.SetCrash(1, q); err != nil {
			return false
		}
		if err := c.SetLossBetween(0, 1, l); err != nil {
			return false
		}
		rel, err := c.EdgeReliability(0, 1)
		if err != nil {
			return false
		}
		lam, err := c.Lambda(0, 1)
		if err != nil {
			return false
		}
		return rel >= 0 && rel <= 1 && math.Abs(rel+lam-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestGrowAndRemoveLinkAtMirrorGraph pins the alignment contract between
// a mutating topology and its configuration: Grow appends zeroed entries
// for new nodes/links, and RemoveLinkAt mirrors the graph's swap-removal
// so loss values keep following their links across membership changes.
func TestGrowAndRemoveLinkAtMirrorGraph(t *testing.T) {
	g, err := topology.Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	c := New(g)
	for i := 0; i < g.NumLinks(); i++ {
		if err := c.SetLoss(i, float64(i+1)/10); err != nil {
			t.Fatal(err)
		}
	}

	// Grow: a joiner with one link; the new entries start at zero.
	id := g.AddNode()
	if _, err := g.AddLink(id, 0); err != nil {
		t.Fatal(err)
	}
	c.Grow()
	if c.Crash(id) != 0 {
		t.Errorf("new node crash = %v, want 0", c.Crash(id))
	}
	if got, err := c.LossBetween(id, 0); err != nil || got != 0 {
		t.Errorf("new link loss = (%v, %v), want (0, nil)", got, err)
	}

	// Remove a middle link: the graph swap-moves the last link into the
	// freed slot and the config must mirror it, keeping every surviving
	// link's loss value addressable by its (possibly new) index.
	want := make(map[topology.Link]float64)
	for i := 0; i < g.NumLinks(); i++ {
		want[g.Link(i)] = c.Loss(i)
	}
	removedIdx, _, err := g.RemoveLink(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveLinkAt(removedIdx); err != nil {
		t.Fatal(err)
	}
	delete(want, topology.NewLink(1, 2))
	for i := 0; i < g.NumLinks(); i++ {
		if got := c.Loss(i); got != want[g.Link(i)] {
			t.Errorf("after swap-removal, link %v loss = %v, want %v", g.Link(i), got, want[g.Link(i)])
		}
	}
	if err := c.RemoveLinkAt(99); err == nil {
		t.Error("out-of-range RemoveLinkAt should fail")
	}
}

// TestResetMatchesNew: a configuration that held probabilities for a
// larger graph is, once Reset onto a smaller one, what New returns there —
// aligned with it and all zero — and resetting onto a shape it already
// held allocates nothing.
func TestResetMatchesNew(t *testing.T) {
	big, small := ring(t, 12), ring(t, 5)
	c, err := Uniform(big, 0.3, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	c.Reset(small)
	if c.Graph() != small {
		t.Fatal("Reset did not re-align the configuration")
	}
	if d, err := c.MaxAbsDiff(New(small)); err != nil || d != 0 {
		t.Fatalf("reset configuration differs from a new one by %v (%v)", d, err)
	}
	if err := c.SetLoss(small.NumLinks(), 0.1); err == nil {
		t.Error("a link index of the larger graph is still settable")
	}
	c.Reset(big)
	if d, err := c.MaxAbsDiff(New(big)); err != nil || d != 0 {
		t.Fatalf("configuration reset back onto the larger graph differs from a new one by %v (%v)", d, err)
	}
}

// TestAllocsReset pins Reset onto a shape the configuration already held.
func TestAllocsReset(t *testing.T) {
	big, small := ring(t, 12), ring(t, 5)
	c := New(big)
	if got := testing.AllocsPerRun(20, func() { c.Reset(small); c.Reset(big) }); got != 0 {
		t.Errorf("Reset within capacity allocated %.0f times, want 0", got)
	}
}
