package transport

import (
	"sync/atomic"
	"testing"
	"time"

	"adaptivecast/internal/raceflag"
	"adaptivecast/internal/topology"
)

// TestFabricHandlerRunsOncePerSurvivingCopy pins the identity the
// benchmark's drain and the protocol's reliability math both rest on:
// whichever entry point a flush takes, the receiving handler runs exactly
// Sent − Lost − FaultDrops − Overflows times — one independent loss draw
// per copy, nothing collapsed and nothing duplicated inside the fabric.
func TestFabricHandlerRunsOncePerSurvivingCopy(t *testing.T) {
	f := NewFabric(FabricOptions{Seed: 11, QueueSize: 8})
	defer func() { _ = f.Close() }()
	a := f.Endpoint(0)
	b := f.Endpoint(1).(*fabricEndpoint)
	var handled atomic.Int64
	gate := make(chan struct{})
	b.SetHandler(func(topology.NodeID, []byte) {
		<-gate
		handled.Add(1)
	})
	settle := func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			s := f.Stats()
			want := int64(s.Sent - s.Lost - s.FaultDrops - s.Overflows)
			got := handled.Load()
			if got == want && b.inbox.Len() == 0 {
				return
			}
			if got > want || time.Now().After(deadline) {
				t.Fatalf("handler ran %d times, stats %+v allow exactly %d", got, s, want)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}

	// Overflows: the handler is held, so an 8-entry inbox fills; each
	// refused entry loses all of its copies, as a unit.
	for i := 0; i < 20; i++ {
		if _, err := SendN(a, 1, []byte("held"), 3); err != nil {
			t.Fatal(err)
		}
	}
	if s := f.Stats(); s.Overflows == 0 || s.Overflows%3 != 0 {
		t.Fatalf("Overflows = %d, want a positive multiple of the 3-copy burst", s.Overflows)
	}
	close(gate)
	settle()

	// Per-copy loss through both entry points, batches on both sides of
	// the small-flush fast path, with entries that carry no copies.
	if err := f.SetLoss(0, 1, 0.4); err != nil {
		t.Fatal(err)
	}
	wide := make([]FrameBatch, 12)
	for i := range wide {
		wide[i] = FrameBatch{Frame: []byte{byte(i)}, Copies: i%4 - 1} // -1, 0, 1, 2, …
	}
	partial := false
	for i := 0; i < 300; i++ {
		before := f.Stats()
		if _, err := SendN(a, 1, []byte("burst"), 4); err != nil {
			t.Fatal(err)
		}
		if lost := f.Stats().Lost - before.Lost; lost > 0 && lost < 4 {
			partial = true
		}
		if _, err := SendFrames(a, 1, wide[:3+i%10]); err != nil {
			t.Fatal(err)
		}
		if i%16 == 0 {
			settle() // keep the small queue from overflowing again
		}
	}
	if !partial {
		t.Error("no 4-copy burst lost some but not all of its copies: loss is not sampled per copy")
	}
	settle()

	// A down link drops every copy as a fault, and says so.
	f.SetLinkDown(0, 1, true)
	before := f.Stats()
	if _, err := SendN(a, 1, []byte("down"), 5); err != nil {
		t.Fatal(err)
	}
	if _, err := SendFrames(a, 1, wide); err != nil {
		t.Fatal(err)
	}
	after := f.Stats()
	if sent := after.Sent - before.Sent; sent != 5+9 || after.FaultDrops-before.FaultDrops != sent {
		t.Fatalf("down link: sent %d, fault drops %d, want 14 and 14", sent, after.FaultDrops-before.FaultDrops)
	}
	settle()
}

// TestAllocsFabricHandOff: an undelayed hand-off allocates the receiver's
// owned copy of each surviving frame (the FrameOwner promise) and nothing
// else.
func TestAllocsFabricHandOff(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation pins do not hold under the race detector")
	}
	f := NewFabric(FabricOptions{})
	defer func() { _ = f.Close() }()
	a := f.Endpoint(0)
	f.Endpoint(1).SetHandler(func(topology.NodeID, []byte) {})
	frame := make([]byte, 200)
	batch := []FrameBatch{{Frame: frame, Copies: 2}, {Frame: frame, Copies: 1}, {Frame: frame, Copies: 3}}
	if got := testing.AllocsPerRun(200, func() {
		if _, err := SendN(a, 1, frame, 3); err != nil {
			t.Fatal(err)
		}
	}); got != 1 {
		t.Errorf("SendN allocated %.2f times per call, want 1 (the owned copy)", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		if _, err := SendFrames(a, 1, batch); err != nil {
			t.Fatal(err)
		}
	}); got != 3 {
		t.Errorf("SendFrames of 3 frames allocated %.2f times per call, want 3 (one owned copy each)", got)
	}
}

// BenchmarkFabricSendN is one tree edge's burst: three copies of a
// 200-byte frame handed to a peer whose handler does nothing.
func BenchmarkFabricSendN(b *testing.B) {
	f := NewFabric(FabricOptions{})
	defer func() { _ = f.Close() }()
	a := f.Endpoint(0)
	f.Endpoint(1).SetHandler(func(topology.NodeID, []byte) {})
	frame := make([]byte, 200)
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SendN(a, 1, frame, 3); err != nil {
			b.Fatal(err)
		}
	}
}
