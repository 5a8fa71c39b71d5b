package node

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
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

// dataFrame encodes one copy of broadcast (0, seq) carrying the tree
// (root 0, parents) and the per-child copy counts alloc.
func dataFrame(tb testing.TB, seq uint64, parents []topology.NodeID, alloc []int32, body string) []byte {
	tb.Helper()
	b, err := wire.Encode(&wire.Frame{Kind: wire.FrameData, Data: &wire.DataMsg{
		Origin: 0, Seq: seq, Root: 0, Parents: parents, AllocByNode: alloc, Body: []byte(body),
	}})
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// twoPerEdge allocates two copies to every slot of parents that has a
// parent.
func twoPerEdge(parents []topology.NodeID) []int32 {
	alloc := make([]int32, len(parents))
	for v, p := range parents {
		if p != topology.None {
			alloc[v] = 2
		}
	}
	return alloc
}

// chainFrame is one copy of a broadcast from 0 riding the chain of n, two
// copies per edge.
func chainFrame(tb testing.TB, n int, seq uint64, body string) []byte {
	tb.Helper()
	return dataFrame(tb, seq, chainParents(n), twoPerEdge(chainParents(n)), body)
}

// sentTo is one data send a relay made: copies of a frame toward a peer.
type sentTo struct {
	to     topology.NodeID
	copies int
}

// recordTransport is a frame-owning sink that notes every send. The lane
// drains call it, one goroutine per peer, so it takes a lock.
type recordTransport struct {
	sinkTransport
	mu   sync.Mutex
	sent []sentTo
	idle func(time.Duration) bool // the sending node's WaitSendIdle
}

func (r *recordTransport) record(to topology.NodeID, copies int) {
	r.mu.Lock()
	r.sent = append(r.sent, sentTo{to, copies})
	r.mu.Unlock()
}

func (r *recordTransport) Send(to topology.NodeID, _ []byte) error {
	r.record(to, 1)
	return nil
}

func (r *recordTransport) SendN(to topology.NodeID, _ []byte, n int) error {
	r.record(to, n)
	return nil
}

func (r *recordTransport) SendFrames(to topology.NodeID, batch []transport.FrameBatch) error {
	for _, e := range batch {
		r.record(to, e.Copies)
	}
	return nil
}

// take waits for the node's lanes to flush and returns what was sent
// since the last take, by destination (see byDestination).
func (r *recordTransport) take(tb testing.TB) []sentTo {
	tb.Helper()
	if !r.idle(5 * time.Second) {
		tb.Fatal("the lanes never flushed")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.sent
	r.sent = nil
	return byDestination(out)
}

// byDestination sorts sends stably by destination: the lanes keep the
// order of the sends to one peer, and nothing across peers.
func byDestination(sends []sentTo) []sentTo {
	slices.SortStableFunc(sends, func(a, b sentTo) int { return cmp.Compare(a.to, b.to) })
	return sends
}

// newRecorded is a node over a recordTransport that waits on its lanes.
func newRecorded(tb testing.TB, cfg Config) (*Node, *recordTransport) {
	tb.Helper()
	rec := &recordTransport{sinkTransport: sinkTransport{id: cfg.ID, owns: true}}
	nd, err := New(cfg, rec)
	if err != nil {
		tb.Fatal(err)
	}
	rec.idle = nd.WaitSendIdle
	tb.Cleanup(nd.Stop)
	return nd, rec
}

// recordingRelay is node 1 of an ID space of n over a recordTransport.
func recordingRelay(tb testing.TB, n int) (*Node, *recordTransport) {
	tb.Helper()
	return newRecorded(tb, Config{ID: 1, NumProcs: n, Neighbors: []topology.NodeID{0, 2}, DeliveryBuffer: 64})
}

// childrenSends is what a relay at self owes the tree (0, parents): alloc
// copies to each child the rebuilt tree lists, by destination.
func childrenSends(tb testing.TB, parents []topology.NodeID, alloc []int32, self topology.NodeID) []sentTo {
	tb.Helper()
	tree, err := mrt.FromParents(0, parents)
	if err != nil {
		tb.Fatal(err)
	}
	var want []sentTo
	for _, c := range tree.Children(self) {
		if alloc[c] > 0 {
			want = append(want, sentTo{c, int(alloc[c])})
		}
	}
	return byDestination(want)
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

// TestForwardCacheLRU keeps the name of the cache it used to test; no
// tree is cached any more. It unit-tests the scan that replaced the
// cache: forward reads this node's children off whichever vector the
// message carries, and vectors taken in turn, over and over, each yield
// their own children whatever was scanned before.
func TestForwardCacheLRU(t *testing.T) {
	nd, rec := recordingRelay(t, 6)
	vectors := [][]topology.NodeID{
		{topology.None, 0, 1, 1, 3, 1},                         // 1 relays to 2, 3 and 5
		{topology.None, 0, 0, 2, 2, 4},                         // 1 is a leaf
		{topology.None, 0, 1, 2, 3, 4},                         // the chain: 1 relays to 2
		{topology.None, 0, topology.None, 1, topology.None, 3}, // tombstones beside 1's only child
	}
	for round := 0; round < 3; round++ {
		for i, parents := range vectors {
			alloc := twoPerEdge(parents)
			alloc[len(alloc)-1] = int32(3 + i)
			msg := &wire.DataMsg{Origin: 0, Seq: 1, Root: 0, Parents: parents, AllocByNode: alloc}
			if err := nd.forward(msg, []byte("frame"), nil); err != nil {
				t.Fatal(err)
			}
			if got, want := rec.take(t), childrenSends(t, parents, alloc, 1); !slices.Equal(got, want) {
				t.Fatalf("round %d vector %d: forwarded %v, the tree's children are %v", round, i, got, want)
			}
		}
	}
}

// TestForwardCacheOnReceivePath keeps its name too: five broadcasts down
// one tree and then five down a second, different tree from the same
// origin are each relayed along their own vector, and the retired cache
// counters stay 0.
func TestForwardCacheOnReceivePath(t *testing.T) {
	nd, rec := recordingRelay(t, 5)
	treeA := chainParents(5)                              // 1 relays to 2
	treeB := []topology.NodeID{topology.None, 0, 3, 1, 1} // 1 relays to 3 and 4
	seq := uint64(0)
	for _, parents := range [][]topology.NodeID{treeA, treeB} {
		alloc := twoPerEdge(parents)
		want := childrenSends(t, parents, alloc, 1)
		for b := 0; b < 5; b++ {
			seq++
			nd.handle(0, dataFrame(t, seq, parents, alloc, "fan"))
			if got := rec.take(t); !slices.Equal(got, want) {
				t.Fatalf("broadcast %d relayed to %v, its own tree says %v", seq, got, want)
			}
		}
	}
	st := nd.Stats()
	if st.DataReceived != 10 || st.Delivered != 10 || st.DecodeErrors != 0 {
		t.Errorf("stats %+v: want 10 first receipts, all delivered, no decode errors", st)
	}
	if st.ForwardCacheHits != 0 || st.ForwardCacheMisses != 0 {
		t.Errorf("retired forward-cache counters moved: %d hits, %d misses", st.ForwardCacheHits, st.ForwardCacheMisses)
	}
}

// TestForwardCacheSurvivesDecoderReuse keeps its name: a relay that
// decoded tree A and then the shorter tree B into the same reused Scratch
// forwards B's children — not A's, and nothing from the slots of A's
// vector that B's decode left behind in the storage.
func TestForwardCacheSurvivesDecoderReuse(t *testing.T) {
	nd, rec := recordingRelay(t, 6)
	treeA := []topology.NodeID{topology.None, 0, 1, 2, 1, 1} // 1 relays to 2, 4 and 5
	treeB := []topology.NodeID{topology.None, 0, 0, 1}       // 1 relays to 3
	var sc wire.Scratch
	for i, parents := range [][]topology.NodeID{treeA, treeB, treeA} {
		alloc := twoPerEdge(parents)
		raw := dataFrame(t, uint64(i+1), parents, alloc, "reuse")
		f, err := sc.DecodeBorrow(raw)
		if err != nil {
			t.Fatal(err)
		}
		nd.handleData(0, f.Data, raw)
		if got, want := rec.take(t), childrenSends(t, parents, alloc, 1); !slices.Equal(got, want) {
			t.Fatalf("frame %d through reused decode storage: relayed to %v, its tree says %v", i, got, want)
		}
	}
}

// TestMalformedTreeIsDeliveredNotRelayed: a data frame whose parent
// vector is not a tree rooted at its root still delivers its payload, is
// counted once in DecodeErrors, and is relayed to nobody.
func TestMalformedTreeIsDeliveredNotRelayed(t *testing.T) {
	for i, c := range []struct {
		name    string
		root    topology.NodeID
		parents []topology.NodeID
	}{
		{"cycle off the root", 0, []topology.NodeID{topology.None, 0, 3, 2}},
		{"cycle through this relay", 0, []topology.NodeID{topology.None, 2, 1, 1}},
		{"self-parent", 0, []topology.NodeID{topology.None, 0, 2, 1}},
		{"root with a parent", 0, []topology.NodeID{1, 0, 1, 1}},
		{"root out of range", 7, []topology.NodeID{topology.None, 0, 1, 1}},
		{"parent out of range", 0, []topology.NodeID{topology.None, 0, 1, 9}},
		{"parent below None", 0, []topology.NodeID{topology.None, 0, 1, -2}},
		{"hanging off a tombstone", 0, []topology.NodeID{topology.None, 0, topology.None, 2}},
	} {
		nd, rec := recordingRelay(t, 4)
		if _, err := mrt.FromParents(c.root, c.parents); err == nil {
			t.Fatalf("%s: the vector is a valid tree; the case tests nothing", c.name)
		}
		raw, err := wire.Encode(&wire.Frame{Kind: wire.FrameData, Data: &wire.DataMsg{
			Origin: 0, Seq: uint64(i + 1), Root: c.root, Parents: c.parents, AllocByNode: []int32{0, 2, 2, 2}, Body: []byte("still delivered"),
		}})
		if err != nil {
			t.Fatal(err)
		}
		nd.handle(0, raw)
		st := nd.Stats()
		if st.Delivered != 1 || st.DecodeErrors != 1 || st.DataSent != 0 || len(rec.take(t)) != 0 {
			t.Errorf("%s: Delivered %d, DecodeErrors %d, DataSent %d; want 1, 1, 0 and no send", c.name, st.Delivered, st.DecodeErrors, st.DataSent)
		}
	}
}

// TestForgedAllocationIsRejectedWhole: one AllocByNode entry past the
// allocator's ceiling would have a relay enqueue that many copies toward
// one child, and a negative one would hide "all forwards failed"; either
// frame fails to decode — one DecodeErrors, no delivery, nothing sent.
func TestForgedAllocationIsRejectedWhole(t *testing.T) {
	const sentinel = 77777 // a three-byte varint found nowhere else in the frame
	alloc := twoPerEdge(chainParents(4))
	alloc[2] = sentinel
	valid := dataFrame(t, 1, chainParents(4), alloc, "x")
	mark := binary.AppendVarint(nil, sentinel)
	at := bytes.Index(valid, mark)
	if at < 0 || bytes.LastIndex(valid, mark) != at {
		t.Fatal("the sentinel allocation is not unique in the frame")
	}
	for _, forged := range []int64{1<<31 - 1, wire.MaxAllocation + 1, -1} {
		raw := append(append(append([]byte(nil), valid[:at]...), binary.AppendVarint(nil, forged)...), valid[at+len(mark):]...)
		nd, rec := recordingRelay(t, 4)
		nd.handle(0, raw)
		st := nd.Stats()
		if st.DecodeErrors != 1 || st.DataReceived != 0 || st.Delivered != 0 || len(rec.take(t)) != 0 {
			t.Errorf("allocation %d: DecodeErrors %d, DataReceived %d, Delivered %d; want 1, 0, 0 and no send",
				forged, st.DecodeErrors, st.DataReceived, st.Delivered)
		}
	}
	// The splice itself is sound: the sentinel frame relays as allocated.
	nd, rec := recordingRelay(t, 4)
	nd.handle(0, valid)
	if got := rec.take(t); !slices.Equal(got, []sentTo{{2, sentinel}}) {
		t.Fatalf("the unforged frame relayed %v, want %d copies to 2", got, sentinel)
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
				// The transport owns nothing it handed over: a relayed
				// frame sits in the lanes after the call returns.
				nd.handle(0, bytes.Clone(frames[i]))
				nd.handle(0, bytes.Clone(frames[i]))
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

// neverSeenTree is a 128-slot parent vector no earlier call returned:
// 0 → 1 → 2, and every further slot under a random earlier slot of 2's
// subtree, so node 1's one child is a lane that is already warm.
func neverSeenTree(rng *rand.Rand) []topology.NodeID {
	parents := make([]topology.NodeID, 128)
	parents[0], parents[1], parents[2] = topology.None, 0, 1
	for v := 3; v < len(parents); v++ {
		parents[v] = topology.NodeID(2 + rng.Intn(v-2))
	}
	return parents
}

// TestAllocsHandleData pins the node's share of a broadcast on an owning
// transport at zero: a duplicate copy — three of every four copies
// handled — on its way to being dropped, and a first receipt of a
// 128-slot tree this node has never seen, checked, delivered and relayed.
func TestAllocsHandleData(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation pins do not hold under the race detector")
	}
	nd := midChainNode(t, 128, true)
	const runs = 200
	rng := rand.New(rand.NewSource(11))
	frames := make([][]byte, runs+8)
	for i := range frames {
		parents := neverSeenTree(rng)
		frames[i] = dataFrame(t, uint64(i+1), parents, twoPerEdge(parents), "payload of a broadcast")
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
		first() // lane queues and decode storage warm
	}
	if got := testing.AllocsPerRun(runs, func() { nd.handle(0, frames[0]) }); got != 0 {
		t.Errorf("a duplicate data copy allocated %.2f times through handle, want 0", got)
	}
	if got := testing.AllocsPerRun(runs, first); got != 0 {
		t.Errorf("a first receipt of a never-seen tree allocated %.2f times through handle, want 0", got)
	}
	st := nd.Stats()
	if st.DecodeErrors != 0 || st.DataSent != 2*st.DataReceived {
		t.Errorf("stats %+v: want no decode errors and two relayed copies per first receipt", st)
	}
}

// BenchmarkHandleDuplicate is what the m[j] redundancy costs a receiver:
// one already-delivered data copy through handle on an owning transport.
func BenchmarkHandleDuplicate(b *testing.B) {
	nd := midChainNode(b, 32, true)
	f := chainFrame(b, 32, 1, "payload of a broadcast")
	nd.handle(0, bytes.Clone(f)) // relayed: the lanes keep this buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nd.handle(0, f)
	}
}

// BenchmarkForwardFanout is the forwarder receive path on its widest
// interior node: decode a data frame, check its 32-slot vector, deliver,
// and hand two copies for each of 30 children to the lanes, which flush
// them onto a transport that does nothing (a transport with a per-flush
// cost is BenchmarkForwardPipelined's subject). The lanes are deep enough
// that nothing is shed, and the time includes draining them.
func BenchmarkForwardFanout(b *testing.B) {
	const procs = 32
	parents := make([]topology.NodeID, procs)
	parents[0], parents[1] = topology.None, 0
	for v := 2; v < procs; v++ {
		parents[v] = 1
	}
	alloc := twoPerEdge(parents)
	alloc[1] = 1
	nd, err := New(Config{ID: 1, NumProcs: procs, Neighbors: []topology.NodeID{0},
		DeliveryBuffer: 1, // deliveries overflow silently; not under test
		LaneQueueDepth: 1 << 15}, &sinkTransport{id: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(nd.Stop)
	msg := &wire.DataMsg{Origin: 0, Root: 0, Parents: parents, AllocByNode: alloc, Body: []byte("fanout payload 0123456789abcdef")}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg.Seq = uint64(i + 1)
		frame, err := wire.Encode(&wire.Frame{Kind: wire.FrameData, Data: msg})
		if err != nil {
			b.Fatal(err)
		}
		nd.handle(0, frame)
	}
	if !nd.WaitSendIdle(30 * time.Second) {
		b.Fatal("lanes did not drain")
	}
	b.StopTimer()
	if st, want := nd.Stats(), b.N*60; st.DataSent != want || st.LaneDrops.Data != 0 {
		b.Fatalf("forwarded %d copies (%d frames shed), want %d", st.DataSent, st.LaneDrops.Data, want)
	}
}
