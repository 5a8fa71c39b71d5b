package transport

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"adaptivecast/internal/queue"
	"adaptivecast/internal/raceflag"
	"adaptivecast/internal/topology"
)

func entry(i int) inboundFrame {
	return inboundFrame{from: topology.NodeID(i), buf: &lentBuf{b: []byte{byte(i)}}, copies: 1}
}

// TestInboxFIFOAcrossGrowOfWrappedRing: a ring whose live entries wrap
// past its end keeps their order when it doubles.
func TestInboxFIFOAcrossGrowOfWrappedRing(t *testing.T) {
	var q inbox
	q.init(64)
	next, want := 0, 0
	for ; next < queue.First; next++ {
		if q.Put(entry(next)) != queue.Accepted {
			t.Fatal("put refused below the bound")
		}
	}
	for ; want < 5; want++ { // head moves to 5; the next puts wrap to 0..4
		if in, r := q.Pop(); r != queue.Popped || in.from != topology.NodeID(want) {
			t.Fatalf("pop = %v, %v; want entry %d", in.from, r, want)
		}
	}
	for ; next < queue.First+5; next++ {
		q.Put(entry(next))
	}
	if q.Cap() != queue.First || q.Len() != queue.First {
		t.Fatalf("%d entries in %d slots: the test wants a full, wrapped ring", q.Len(), q.Cap())
	}
	for ; next < 40; next++ { // grows 8 → 16 → 32 → 64 from the wrapped state
		q.Put(entry(next))
	}
	if q.Cap() != 64 {
		t.Fatalf("ring holds %d slots after growing, want 64", q.Cap())
	}
	for ; want < next; want++ {
		if in, r := q.Pop(); r != queue.Popped || in.from != topology.NodeID(want) {
			t.Fatalf("pop = %v, %v; want entry %d", in.from, r, want)
		}
	}
	if _, r := q.Pop(); r != queue.Empty || q.Len() != 0 {
		t.Fatal("the inbox is not empty after every entry was taken")
	}
}

// TestInboxBoundIsQueueSize: the bound is exactly QueueSize even when it
// is not a power of two, and the ring keeps its high-water array.
func TestInboxBoundIsQueueSize(t *testing.T) {
	var q inbox
	q.init(12)
	for i := 0; i < 12; i++ {
		if r := q.Put(entry(i)); r != queue.Accepted {
			t.Fatalf("put %d = %d below a bound of 12", i, r)
		}
	}
	if r := q.Put(entry(12)); r != queue.Full {
		t.Fatalf("put 13 = %d, want Full", r)
	}
	if q.Cap() != 12 {
		t.Fatalf("ring holds %d slots, want the bound 12", q.Cap())
	}
	for i := 0; i < 12; i++ {
		q.Pop()
	}
	if q.Cap() != 12 {
		t.Fatalf("draining shrank the ring to %d slots", q.Cap())
	}
	if got := q.close(func(*lentBuf) { t.Fatal("an empty inbox released a buffer") }); got != 0 {
		t.Fatalf("closing an empty inbox dropped %d copies", got)
	}
	if r := q.Put(entry(0)); r != queue.Closed {
		t.Fatalf("put after close = %d, want Closed", r)
	}
}

// TestInboxTakeReleasesFrame: once its entry is popped the inbox no
// longer keeps a frame alive, and close releases each buffer it still
// held and reports their copies.
func TestInboxTakeReleasesFrame(t *testing.T) {
	var q inbox
	q.init(4)
	buf := &lentBuf{b: make([]byte, 64)}
	held := weak.Make(buf)
	q.Put(inboundFrame{buf: buf, copies: 3})
	buf = nil
	queued := &lentBuf{b: make([]byte, 64)}
	q.Put(inboundFrame{buf: queued, copies: 2})
	if _, r := q.Pop(); r != queue.Popped {
		t.Fatal("pop found nothing")
	}
	runtime.GC()
	if held.Value() != nil {
		t.Fatal("the inbox still references a frame it handed out")
	}
	var released []*lentBuf
	if got := q.close(func(lb *lentBuf) { released = append(released, lb) }); got != 2 {
		t.Fatalf("close dropped %d copies, want the 2 still queued", got)
	}
	if len(released) != 1 || released[0] != queued {
		t.Fatalf("close released %v, want only the queued buffer %p", released, queued)
	}
}

// TestFabricCloseCountsFramesInFlight: copies that reach an endpoint after
// it closed — delayed flushes landing late, and entries its receive loop
// never got to — are fault drops, so Sent − Lost − FaultDrops − Overflows
// still equals the handler runs.
func TestFabricCloseCountsFramesInFlight(t *testing.T) {
	f := NewFabric(FabricOptions{Latency: 20 * time.Millisecond})
	defer func() { _ = f.Close() }()
	a := f.Endpoint(0)
	b := f.Endpoint(1)
	var handled atomic.Int64
	entered, gate := make(chan struct{}, 6), make(chan struct{})
	b.SetHandler(func(topology.NodeID, []byte) {
		entered <- struct{}{}
		<-gate
		handled.Add(1)
	})
	// Queued behind the held handler: all have landed once it holds the
	// first copy, since the one flush after the SendN shares its delay.
	if _, err := SendN(a, 1, []byte("queued"), 2); err != nil {
		t.Fatal(err)
	}
	if _, err := SendFrames(a, 1, []FrameBatch{{Frame: []byte("q1"), Copies: 1}, {Frame: []byte("q2"), Copies: 3}}); err != nil {
		t.Fatal(err)
	}
	<-entered
	for deadline := time.Now().Add(5 * time.Second); b.(*fabricEndpoint).inbox.Len() < 2; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d entries queued behind the held handler, want 2", b.(*fabricEndpoint).inbox.Len())
		}
	}
	// In flight when the endpoint closes.
	if _, err := SendN(a, 1, []byte("late"), 4); err != nil {
		t.Fatal(err)
	}
	if _, err := SendFrames(a, 1, []FrameBatch{{Frame: []byte("l1"), Copies: 2}, {Frame: []byte("l2"), Copies: 1}}); err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- b.Close() }()
	<-b.(*fabricEndpoint).stop // release the handler only once Close has begun
	close(gate)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := f.Stats()
		want := int64(s.Sent - s.Lost - s.FaultDrops - s.Overflows)
		if got := handled.Load(); got == want {
			if s.Sent != 13 || s.FaultDrops < 7 {
				t.Fatalf("stats %+v: want 13 sent and at least the 7 late copies dropped", s)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("handler ran %d times, stats %+v allow %d", handled.Load(), s, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFabricEndpointAfterClose: a closed fabric hands out endpoints that
// are already closed and start no goroutine.
func TestFabricEndpointAfterClose(t *testing.T) {
	f := NewFabric(FabricOptions{})
	f.Endpoint(0)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	const n = 64
	eps := make([]Transport, n)
	for i := range eps {
		eps[i] = f.Endpoint(topology.NodeID(i + 1))
	}
	if grew := runtime.NumGoroutine() - before; grew >= n/2 {
		t.Fatalf("%d endpoints from a closed fabric started %d goroutines", n, grew)
	}
	ep := eps[0]
	if err := ep.Send(0, []byte("x")); err == nil {
		t.Error("Send on an endpoint of a closed fabric succeeded")
	}
	if _, err := SendN(ep, 0, []byte("x"), 2); err == nil {
		t.Error("SendN on an endpoint of a closed fabric succeeded")
	}
	if _, err := SendFrames(ep, 0, []FrameBatch{{Frame: []byte("x"), Copies: 1}}); err == nil {
		t.Error("SendFrames on an endpoint of a closed fabric succeeded")
	}
	if err := ep.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFabricNegativeQueueSizeUsesDefault: a negative QueueSize is the
// default bound, not a ring sized below zero that panics the first
// sender while it holds the inbox lock and leaves Close hanging on it.
func TestFabricNegativeQueueSizeUsesDefault(t *testing.T) {
	f := NewFabric(FabricOptions{QueueSize: -1})
	a := f.Endpoint(0)
	b := f.Endpoint(1)
	col := newCollector()
	b.SetHandler(col.handler)
	if err := a.Send(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	col.wait(t, 1)
	closed := make(chan error, 1)
	go func() { closed <- f.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close hangs")
	}
}

// endpointBudget is the heap an idle endpoint may hold. A preallocated
// 1,024-entry queue of 40-byte entries made it about 40 KiB.
const endpointBudget = 2 << 10

// TestEndpointFootprint pins what an idle endpoint costs: 128 Fabric
// endpoints and one TCP transport, none of which has received a frame,
// and the heap they hold after a collection divided among them.
// Goroutine stacks are not heap and are not counted.
func TestEndpointFootprint(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's shadow memory inflates the heap")
	}
	const fabricEndpoints = 128
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f := NewFabric(FabricOptions{})
	for i := 0; i < fabricEndpoints; i++ {
		f.Endpoint(topology.NodeID(i)).SetHandler(func(topology.NodeID, []byte) {})
	}
	tcp, err := NewTCP(0, "127.0.0.1:0", nil, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perEndpoint := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / (fabricEndpoints + 1)
	runtime.KeepAlive(f)
	runtime.KeepAlive(tcp)
	_ = f.Close()
	_ = tcp.Close()
	t.Logf("an idle endpoint holds %d bytes of heap", perEndpoint)
	if perEndpoint > endpointBudget {
		t.Errorf("an idle endpoint holds %d bytes of heap, budget %d", perEndpoint, endpointBudget)
	}
}
