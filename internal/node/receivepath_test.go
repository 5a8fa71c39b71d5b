package node

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"adaptivecast/internal/mrt"
	"adaptivecast/internal/raceflag"
	"adaptivecast/internal/topology"
	"adaptivecast/internal/transport"
	"adaptivecast/internal/wire"
)

// sinkTransport accepts every send and does nothing; owns says whether it
// claims transport.FrameOwner for the frames a test hands to handle.
type sinkTransport struct {
	id   topology.NodeID
	owns bool
}

func (s *sinkTransport) Local() topology.NodeID                                   { return s.id }
func (s *sinkTransport) SetHandler(transport.Handler)                             {}
func (s *sinkTransport) Close() error                                             { return nil }
func (s *sinkTransport) Send(topology.NodeID, []byte) error                       { return nil }
func (s *sinkTransport) SendN(topology.NodeID, []byte, int) error                 { return nil }
func (s *sinkTransport) SendFrames(topology.NodeID, []transport.FrameBatch) error { return nil }
func (s *sinkTransport) HandlerOwnsFrame() bool                                   { return s.owns }

// chainParents is the parent vector of the line 0 — 1 — … — n-1 rooted at 0.
func chainParents(n int) []topology.NodeID {
	ps := make([]topology.NodeID, n)
	ps[0] = topology.None
	for v := 1; v < n; v++ {
		ps[v] = topology.NodeID(v - 1)
	}
	return ps
}

// chainFrame is one copy of a broadcast from 0 riding that chain, two
// copies per edge.
func chainFrame(tb testing.TB, n int, seq uint64, body string) []byte {
	tb.Helper()
	alloc := make([]int32, n)
	for v := 1; v < n; v++ {
		alloc[v] = 2
	}
	b, err := wire.Encode(&wire.Frame{Kind: wire.FrameData, Data: &wire.DataMsg{
		Origin: 0, Seq: seq, Root: 0, Parents: chainParents(n), AllocByNode: alloc, Body: []byte(body),
	}})
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// midChainNode is node 1 of a chain of n over a sink transport.
func midChainNode(tb testing.TB, n int, owns bool) *Node {
	tb.Helper()
	nd, err := New(Config{ID: 1, NumProcs: n, Neighbors: []topology.NodeID{0, 2}, DeliveryBuffer: 4},
		&sinkTransport{id: 1, owns: owns})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(nd.Stop)
	return nd
}

// TestForwardCacheSurvivesDecoderReuse: the cache used to key an entry on
// the decoder's own parent vector; with reused decode storage the next
// frame overwrites that vector. An entry must keep matching the tree it
// was stored for, and only that tree.
func TestForwardCacheSurvivesDecoderReuse(t *testing.T) {
	star := []topology.NodeID{topology.None, 0, 0, 0}
	var sc wire.Scratch
	decode := func(parents []topology.NodeID) *wire.DataMsg {
		t.Helper()
		b, err := wire.Encode(&wire.Frame{Kind: wire.FrameData, Data: &wire.DataMsg{
			Origin: 0, Seq: 1, Root: 0, Parents: parents, AllocByNode: make([]int32, len(parents)),
		}})
		if err != nil {
			t.Fatal(err)
		}
		f, err := sc.DecodeBorrow(b)
		if err != nil {
			t.Fatal(err)
		}
		return f.Data
	}

	c := newForwardCache(4)
	first := decode(chainParents(4))
	tree, err := mrt.FromParents(first.Root, first.Parents)
	if err != nil {
		t.Fatal(err)
	}
	c.put(first.Root, first.Parents, tree)

	second := decode(star) // same storage: first.Parents now reads as the star
	if _, ok := c.get(second.Root, second.Parents); ok {
		t.Fatal("a tree that was never cached hit the entry of the frame decoded before it")
	}
	got, ok := c.get(0, chainParents(4))
	if !ok || got != tree {
		t.Fatalf("the cached chain no longer hits after its decode storage was reused (ok=%v)", ok)
	}
	if got.Parent(3) != 2 || len(got.Children(0)) != 1 {
		t.Fatal("the cached tree is not the chain it was stored as")
	}
}

// TestDeliveredBodyOutlivesTransportBuffer: on a transport that keeps its
// read buffers (TCP), what the application and the OnDeliver hook are
// handed must not change when the buffer does; on an owning transport the
// body is the inbound buffer itself, uncopied.
func TestDeliveredBodyOutlivesTransportBuffer(t *testing.T) {
	for _, owns := range []bool{false, true} {
		var hooked Delivery
		nd, err := New(Config{ID: 1, NumProcs: 3, Neighbors: []topology.NodeID{0, 2},
			Hooks: Hooks{OnDeliver: func(d Delivery) { hooked = d }}}, &sinkTransport{id: 1, owns: owns})
		if err != nil {
			t.Fatal(err)
		}
		buf := chainFrame(t, 3, 1, "keep me")
		nd.handle(0, buf)
		d := waitDelivery(t, nd)
		for i := range buf {
			buf[i] = 0xEE // the transport reads its next frame into the buffer
		}
		kept := string(d.Body) == "keep me" && string(hooked.Body) == "keep me"
		if kept == owns {
			t.Errorf("owning transport %v: delivered body %q, hook saw %q", owns, d.Body, hooked.Body)
		}
		nd.Stop()
	}
}

// TestHandleIsSafeFromSeveralGoroutines: transports serialise a node's
// handler, but nothing in the node may depend on it — the decode storage
// is pooled, not per node. Run with -race.
func TestHandleIsSafeFromSeveralGoroutines(t *testing.T) {
	nd := midChainNode(t, 8, true)
	const senders, each = 4, 50
	frames := make([][]byte, senders*each)
	for i := range frames {
		frames[i] = chainFrame(t, 3+i%senders, uint64(i+1), fmt.Sprintf("body %d", i))
	}
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := s; i < len(frames); i += senders {
				nd.handle(0, frames[i])
				nd.handle(0, frames[i])
			}
		}(s)
	}
	wg.Wait()
	st := nd.Stats()
	// Trees of 3 to 6 processes in a view of 8 all decode; each broadcast
	// is a first receipt once and a duplicate once (DeliveryBuffer is 4,
	// so most deliveries are counted drops — not this test's subject).
	if st.DataReceived != len(frames) || st.DecodeErrors != 0 {
		t.Fatalf("DataReceived = %d, DecodeErrors = %d; want %d and 0", st.DataReceived, st.DecodeErrors, len(frames))
	}
}

// TestAllocsHandleData pins the node's share of a broadcast on an owning
// transport: a duplicate copy — three of every four copies handled —
// allocates nothing on its way to being dropped, and a first receipt that
// hits the forward cache delivers and relays within one allocation.
func TestAllocsHandleData(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation pins do not hold under the race detector")
	}
	nd := midChainNode(t, 32, true)
	const runs = 200
	frames := make([][]byte, runs+8)
	for i := range frames {
		frames[i] = chainFrame(t, 32, uint64(i+1), "payload of a broadcast")
	}
	next := 0
	first := func() {
		nd.handle(0, frames[next])
		next++
		<-nd.Deliveries()
		if !nd.WaitSendIdle(5 * time.Second) {
			t.Fatal("relay never left the lanes")
		}
	}
	for i := 0; i < 4; i++ {
		first() // tree cached, lane queues and decode storage warm
	}
	if got := testing.AllocsPerRun(runs, func() { nd.handle(0, frames[0]) }); got != 0 {
		t.Errorf("a duplicate data copy allocated %.2f times through handle, want 0", got)
	}
	if got := testing.AllocsPerRun(runs, first); got > 1 {
		t.Errorf("a first receipt with a cached tree allocated %.2f times through handle, want <= 1", got)
	}
	st := nd.Stats()
	if st.ForwardCacheMisses != 1 || st.DataSent != 2*st.DataReceived {
		t.Errorf("stats %+v: want one tree rebuild and two relayed copies per first receipt", st)
	}
}

// BenchmarkHandleDuplicate is what the m[j] redundancy costs a receiver:
// one already-delivered data copy through handle on an owning transport.
func BenchmarkHandleDuplicate(b *testing.B) {
	nd := midChainNode(b, 32, true)
	f := chainFrame(b, 32, 1, "payload of a broadcast")
	nd.handle(0, f)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nd.handle(0, f)
	}
}
