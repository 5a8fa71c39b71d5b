package transport

import (
	"runtime"
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

	// A loss-1 link drops every copy, and counts each one lost.
	if err := f.SetLoss(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	before := f.Stats()
	if _, err := SendN(a, 1, []byte("dead"), 5); err != nil {
		t.Fatal(err)
	}
	if _, err := SendFrames(a, 1, wide); err != nil {
		t.Fatal(err)
	}
	after := f.Stats()
	if sent := after.Sent - before.Sent; sent != 5+9 || after.Lost-before.Lost != sent {
		t.Fatalf("loss-1 link: sent %d, lost %d, want 14 and 14", sent, after.Lost-before.Lost)
	}
	settle()
}

// TestAllocsFabricHandOff: a warm undelayed hand-off allocates nothing.
// Each surviving frame is copied into a buffer from the fabric's lent
// pool, lent for the handler calls and taken back after the last one;
// every run waits for that, so the next run's buffer is a recycled one.
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
	returned := func() {
		for f.lent.Outstanding() > 0 {
			runtime.Gosched()
		}
	}
	sendN := func() {
		if _, err := SendN(a, 1, frame, 3); err != nil {
			t.Fatal(err)
		}
		returned()
	}
	sendFrames := func() {
		if _, err := SendFrames(a, 1, batch); err != nil {
			t.Fatal(err)
		}
		returned()
	}
	for i := 0; i < 16; i++ { // the pool holds a buffer wherever the loops run
		sendN()
		sendFrames()
	}
	if got := testing.AllocsPerRun(200, sendN); got != 0 {
		t.Errorf("a warm SendN allocated %.2f times per call, want 0", got)
	}
	if got := testing.AllocsPerRun(200, sendFrames); got != 0 {
		t.Errorf("a warm SendFrames of 3 frames allocated %.2f times per call, want 0", got)
	}
}

// TestFabricLendsEveryBufferBack: every buffer the fabric lends comes
// back to its pool, whichever way the frame leaves — handled copy by
// copy, refused by a full inbox, emptied from an inbox that closes,
// refused by a closed endpoint, or landing after Close on a delayed
// fabric — and a copy lost on a loss-1 link lends none.
func TestFabricLendsEveryBufferBack(t *testing.T) {
	f := NewFabric(FabricOptions{QueueSize: 1})
	defer func() { _ = f.Close() }()
	back := func(f *Fabric, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for f.lent.Outstanding() > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d lent buffers never came back", what, f.lent.Outstanding())
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	send := func(to topology.NodeID, frame string, n int) {
		t.Helper()
		if _, err := SendN(f.Endpoint(0), to, []byte(frame), n); err != nil {
			t.Fatal(err)
		}
	}

	// Handled: the buffer comes back after the last of its 3 copies.
	var handled atomic.Int64
	f.Endpoint(1).SetHandler(func(topology.NodeID, []byte) { handled.Add(1) })
	send(1, "three copies", 3)
	for deadline := time.Now().Add(5 * time.Second); handled.Load() < 3; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the handler ran %d times, want 3", handled.Load())
		}
	}
	back(f, "a delivery of 3 copies")

	// Overflow, then close: endpoint 2's handler holds the first frame,
	// the second waits in its one-slot inbox and the third finds it full;
	// the held frame comes back when its handler returns, the queued one
	// when Close empties the inbox.
	c := f.Endpoint(2)
	entered, gate := make(chan struct{}, 3), make(chan struct{})
	c.SetHandler(func(topology.NodeID, []byte) {
		entered <- struct{}{}
		<-gate
	})
	send(2, "held", 1)
	<-entered
	send(2, "queued", 1)
	send(2, "refused", 1)
	if s := f.Stats(); s.Overflows != 1 {
		t.Fatalf("stats %+v: want the one refused copy counted as an overflow", s)
	}
	closed := make(chan error, 1)
	go func() { closed <- c.Close() }()
	<-c.(*fabricEndpoint).stop // release the handler only once Close has begun
	close(gate)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	back(f, "an inbox overflow and an inbox closed with a frame queued")

	// A closed endpoint refuses what is routed to it.
	before := f.Stats().FaultDrops
	send(2, "to a closed endpoint", 2)
	if got := f.Stats().FaultDrops - before; got != 2 {
		t.Fatalf("a closed endpoint dropped %d copies as faults, want 2", got)
	}
	back(f, "a closed endpoint")

	// A lost copy is dropped before it is copied.
	if err := f.SetLoss(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	send(1, "lost", 2)
	if _, err := SendFrames(f.Endpoint(0), 1, []FrameBatch{{Frame: []byte("lost too"), Copies: 3}}); err != nil {
		t.Fatal(err)
	}
	if n := f.lent.Outstanding(); n != 0 {
		t.Fatalf("a loss-1 link lent %d buffers", n)
	}

	// A delayed flush that lands after its endpoint closed.
	slow := NewFabric(FabricOptions{Latency: 100 * time.Millisecond})
	defer func() { _ = slow.Close() }()
	d := slow.Endpoint(3)
	d.SetHandler(func(topology.NodeID, []byte) { t.Error("a frame reached a closed endpoint's handler") })
	if _, err := SendN(slow.Endpoint(0), 3, []byte("late"), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := SendFrames(slow.Endpoint(0), 3, []FrameBatch{{Frame: []byte("l1"), Copies: 2}, {Frame: []byte("l2"), Copies: 1}}); err != nil {
		t.Fatal(err)
	}
	if n := slow.lent.Outstanding(); n != 3 {
		t.Fatalf("%d buffers lent to the delayed flushes, want 3", n)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	back(slow, "a delayed flush landing after Close")
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
