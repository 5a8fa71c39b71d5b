package transport

import (
	"slices"
	"testing"

	"adaptivecast/internal/topology"
)

// TestFabricLossDrawsArePinned: for one seed, a fixed sequence of SendN
// and SendFrames calls over two lossy links and a lossless one leaves
// exactly these survivor counts. The fabric draws one Float64 per copy
// from its one seeded source, and only on a lossy link, so every seeded
// run's losses — the live cluster's and the benchmark's — stay what they
// were; a change to the loss model that moves a single draw moves this
// sequence.
func TestFabricLossDrawsArePinned(t *testing.T) {
	f := NewFabric(FabricOptions{Seed: 5})
	defer func() { _ = f.Close() }()
	a := f.Endpoint(0)
	for id := topology.NodeID(1); id <= 3; id++ {
		f.Endpoint(id).SetHandler(func(topology.NodeID, []byte) {})
	}
	if err := f.SetLoss(0, 1, 0.3); err != nil {
		t.Fatal(err)
	}
	if err := f.SetLoss(2, 0, 0.6); err != nil { // either end names the link
		t.Fatal(err)
	}
	var got []int
	survivors := func(sent int, send func() (int, error)) {
		t.Helper()
		before := f.Stats()
		if n, err := send(); err != nil || n != sent {
			t.Fatalf("sent %d copies (%v), want %d", n, err, sent)
		}
		after := f.Stats()
		if after.Sent-before.Sent != sent {
			t.Fatalf("stats counted %d copies sent, want %d", after.Sent-before.Sent, sent)
		}
		got = append(got, sent-(after.Lost-before.Lost))
	}
	batch := []FrameBatch{{Frame: []byte("a"), Copies: 3}, {Frame: []byte("b"), Copies: 0}, {Frame: []byte("c"), Copies: 4}}
	for i := 0; i < 12; i++ {
		to := 1 + topology.NodeID(i%3) // 0→3 is lossless and draws nothing
		survivors(1+i%5, func() (int, error) { return SendN(a, to, []byte("x"), 1+i%5) })
		survivors(7, func() (int, error) { return SendFrames(a, to, batch) })
	}
	want := []int{1, 7, 1, 2, 3, 7, 2, 7, 3, 5, 1, 7, 1, 4, 1, 2, 4, 7, 2, 6, 1, 1, 2, 7}
	if !slices.Equal(got, want) {
		t.Fatalf("survivors per call = %#v, want %#v", got, want)
	}
}

// TestFabricSetLossCoversBothDirections: a link's loss is one number for
// both directions, whichever end names it; the last SetLoss wins.
func TestFabricSetLossCoversBothDirections(t *testing.T) {
	f := NewFabric(FabricOptions{})
	defer func() { _ = f.Close() }()
	a, b := f.Endpoint(0), f.Endpoint(1)
	colA, colB := newCollector(), newCollector()
	a.SetHandler(colA.handler)
	b.SetHandler(colB.handler)
	if err := f.SetLoss(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := a.Send(1, []byte("fwd")); err != nil {
			t.Fatal(err)
		}
		if err := b.Send(0, []byte("rev")); err != nil {
			t.Fatal(err)
		}
	}
	if s := f.Stats(); s.Sent != 20 || s.Lost != 20 {
		t.Fatalf("stats %+v: a loss-1 link must drop all 20 copies, both ways", s)
	}
	if err := f.SetLoss(1, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(1, []byte("fwd")); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(0, []byte("rev")); err != nil {
		t.Fatal(err)
	}
	colA.wait(t, 1)
	colB.wait(t, 1)
	if s := f.Stats(); s.Lost != 20 {
		t.Fatalf("stats %+v: the healed link lost a copy", s)
	}
}
