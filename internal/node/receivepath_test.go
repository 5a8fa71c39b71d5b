package node

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"adaptivecast/internal/bayes"
	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/mrt"
	"adaptivecast/internal/raceflag"
	"adaptivecast/internal/topology"
	"adaptivecast/internal/transport"
	"adaptivecast/internal/wire"
)

// sinkTransport accepts every send and does nothing.
type sinkTransport struct {
	id topology.NodeID
}

func (s *sinkTransport) Local() topology.NodeID                                   { return s.id }
func (s *sinkTransport) SetHandler(transport.Handler)                             {}
func (s *sinkTransport) Close() error                                             { return nil }
func (s *sinkTransport) Send(topology.NodeID, []byte) error                       { return nil }
func (s *sinkTransport) SendN(topology.NodeID, []byte, int) error                 { return nil }
func (s *sinkTransport) SendFrames(topology.NodeID, []transport.FrameBatch) error { return nil }

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

// recordTransport is a sink that notes every send. The lane
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
	rec := &recordTransport{sinkTransport: sinkTransport{id: cfg.ID}}
	nd := newTestNode(tb, cfg, rec)
	rec.idle = nd.WaitSendIdle
	return nd, rec
}

// recordingRelay is node 1 of an ID space of n over a recordTransport.
func recordingRelay(tb testing.TB, n int) (*Node, *recordTransport) {
	tb.Helper()
	return newRecorded(tb, Config{ID: 1, NumProcs: n, Neighbors: []topology.NodeID{0, 2}})
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
func midChainNode(tb testing.TB, n int) *Node {
	tb.Helper()
	return newTestNode(tb, Config{ID: 1, NumProcs: n, Neighbors: []topology.NodeID{0, 2}},
		&sinkTransport{id: 1})
}

// TestForwardCacheLRU keeps the name of the cache it used to test; no
// tree is cached any more. It unit-tests the scan that replaced the
// cache: a relay reads this node's children off whichever vector the
// message carries (dataplane.Sends), and vectors taken in turn, over and
// over, each yield their own children whatever was scanned before.
func TestForwardCacheLRU(t *testing.T) {
	nd, rec := recordingRelay(t, 6)
	vectors := [][]topology.NodeID{
		{topology.None, 0, 1, 1, 3, 1},                         // 1 relays to 2, 3 and 5
		{topology.None, 0, 0, 2, 2, 4},                         // 1 is a leaf
		{topology.None, 0, 1, 2, 3, 4},                         // the chain: 1 relays to 2
		{topology.None, 0, topology.None, 1, topology.None, 3}, // tombstones beside 1's only child
	}
	seq := uint64(0)
	for round := 0; round < 3; round++ {
		for i, parents := range vectors {
			alloc := twoPerEdge(parents)
			alloc[len(alloc)-1] = int32(3 + i)
			seq++
			nd.handle(0, dataFrame(t, seq, parents, alloc, "frame"))
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
	var sc decStore
	for i, parents := range [][]topology.NodeID{treeA, treeB, treeA} {
		alloc := twoPerEdge(parents)
		raw := dataFrame(t, uint64(i+1), parents, alloc, "reuse")
		f, err := sc.DecodeBorrow(raw)
		if err != nil {
			t.Fatal(err)
		}
		nd.mu.Lock()
		nd.core.Receive(0, f, raw, &sc.fx)
		nd.mu.Unlock()
		_ = nd.apply(&sc.fx, &sc)
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
// one child, and a negative one would hide "all N data sends failed"; either
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

// TestDeliveredBodyOutlivesTransportBuffer: every transport lends its
// read buffers, so what the application and the OnDeliver hook are
// handed must not change when the buffer does.
func TestDeliveredBodyOutlivesTransportBuffer(t *testing.T) {
	var hooked Delivery
	nd := newTestNode(t, Config{ID: 1, NumProcs: 3, Neighbors: []topology.NodeID{0, 2},
		Hooks: Hooks{OnDeliver: func(d Delivery) { hooked = d }}}, &sinkTransport{id: 1})
	buf := chainFrame(t, 3, 1, "keep me")
	nd.handle(0, buf)
	d := waitDelivery(t, nd)
	for i := range buf {
		buf[i] = 0xEE // the transport reads its next frame into the buffer
	}
	if string(d.Body) != "keep me" || string(hooked.Body) != "keep me" {
		t.Errorf("delivered body %q, hook saw %q, want both %q", d.Body, hooked.Body, "keep me")
	}
}

// TestDeliveredBodySlab: a delivered body up to bodyChunk/8 bytes is
// carved from a chunk in the handler's pooled decode storage, and a
// longer one is copied alone. On the line 0 — 1 — 2, over a Fabric and
// over TCP, 210 bodies of sizes around that bound reach node 2 through
// node 1's relay, while both transports reuse the buffers they read
// frames into and the decode storage goes back to its pool after every
// frame, with a collection midway that may drop the pooled storage.
// Every body node 2 kept still reads as sent, a carved one's capacity
// ends where it does, and appending to one changes no other.
func TestDeliveredBodySlab(t *testing.T) {
	sizes := []int{0, 1, 63, 64, 128, 129, 4096}
	const msgs = 30 * 7
	body := func(seq uint64) []byte {
		b := make([]byte, sizes[int(seq)%len(sizes)])
		for i := range b {
			b[i] = byte(int(seq) + i)
		}
		return b
	}
	g, err := topology.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	overFabric := func(t *testing.T) []*Node {
		fabric := transport.NewFabric(transport.FabricOptions{})
		t.Cleanup(func() { _ = fabric.Close() })
		return buildCluster(t, g, fabric, nil)
	}
	overTCP := func(t *testing.T) []*Node {
		trs := make([]*transport.TCP, g.NumNodes())
		for i := range trs {
			tr, err := transport.NewTCP(topology.NodeID(i), "127.0.0.1:0", nil, transport.TCPOptions{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = tr.Close() })
			trs[i] = tr
		}
		nodes := make([]*Node, len(trs))
		for i := range nodes {
			id := topology.NodeID(i)
			for _, nb := range g.Neighbors(id) {
				trs[i].AddPeer(nb, trs[nb].Addr().String())
			}
			nodes[i] = newTestNode(t, Config{ID: id, NumProcs: len(nodes), Neighbors: g.Neighbors(id)}, trs[i])
		}
		return nodes
	}
	for _, c := range []struct {
		name    string
		cluster func(*testing.T) []*Node
	}{{"Fabric", overFabric}, {"TCP", overTCP}} {
		t.Run(c.name, func(t *testing.T) {
			nodes := c.cluster(t)
			var kept []Delivery
			for i := 0; i < msgs; i++ {
				if _, _, err := nodes[0].Broadcast(body(uint64(i + 1))); err != nil {
					t.Fatal(err)
				}
				kept = append(kept, waitDelivery(t, nodes[2]))
				waitDelivery(t, nodes[1])
				if i == msgs/2 {
					runtime.GC()
				}
			}
			intact := func(when string) {
				t.Helper()
				for _, d := range kept {
					if want := body(d.Seq); !bytes.Equal(d.Body, want) {
						t.Fatalf("%s: the body of broadcast %d reads %x, want %x", when, d.Seq, d.Body, want)
					}
				}
			}
			intact("after every broadcast arrived")
			for _, d := range kept {
				if n := len(d.Body); n > 0 && n <= bodyChunk/8 && cap(d.Body) != n {
					t.Errorf("the carved body of broadcast %d has len %d, cap %d", d.Seq, n, cap(d.Body))
				}
			}
			for _, d := range kept {
				_ = append(d.Body, bytes.Repeat([]byte{0xEE}, 64)...)
			}
			intact("after appending to every body")
		})
	}
}

// TestHandleIsSafeFromSeveralGoroutines: transports serialise a node's
// handler, but nothing in the node may depend on it — the decode storage
// is pooled, not per node. Run with -race.
func TestHandleIsSafeFromSeveralGoroutines(t *testing.T) {
	nd := midChainNode(t, 8)
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
	// is a first receipt once and a duplicate once (nothing takes the
	// deliveries, which wait in the queue — not this test's subject).
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

// TestAllocsHandleData pins the node's share of a broadcast: a duplicate
// copy — three of every four copies handled — on its way to being
// dropped, and a first receipt of a 128-slot tree this node has never
// seen, checked, delivered and relayed. Neither allocates on warm
// storage: the relay copies the frame into a pooled encode buffer, and
// the body the application keeps is carved from the decode storage's
// chunk, a fresh one every bodyChunk bytes of bodies — less than one
// allocation a run, which AllocsPerRun's whole-number average reads as 0.
func TestAllocsHandleData(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation pins do not hold under the race detector")
	}
	nd := midChainNode(t, 128)
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
		if _, err := nd.Next(context.Background()); err != nil {
			t.Fatal(err)
		}
		if !nd.WaitSendIdle(5 * time.Second) {
			t.Fatal("relay never left the lanes")
		}
	}
	for i := 0; i < 4; i++ {
		first() // lane queues, encode buffers and decode storage warm
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

// TestAllocsHandleHeartbeat pins a heartbeat's receive at n = 128 at zero:
// a warm delta heartbeat through handle on a lending transport is decoded
// borrowing the frame, merged into the view and dropped, all in pooled or
// preallocated storage. Nodes 0 and 1 of a 128-ring both know the whole
// ring and exchange heartbeats until their ack chains stand; then node 1
// handles, one per run, the deltas node 0 cuts in later periods, each
// after node 0 was taught new estimates for every process and link, so
// every delta carries records node 1 already holds and must overwrite.
func TestAllocsHandleHeartbeat(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation pins do not hold under the race detector")
	}
	const procs, runs = 128, 200
	g, err := topology.Ring(procs)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	nodes, boxes := make([]*Node, 2), make([]*mailTransport, 2)
	for i := range nodes {
		id := topology.NodeID(i)
		boxes[i] = &mailTransport{sinkTransport: sinkTransport{id: id}}
		nodes[i] = newTestNode(t, Config{ID: id, NumProcs: procs, Neighbors: g.Neighbors(id)}, boxes[i])
		teach(t, nodes[i], g, rng)
	}
	// cut ticks node i and returns the heartbeat it sent the other node.
	cut := func(i int) []byte {
		t.Helper()
		nodes[i].Tick()
		if !nodes[i].WaitSendIdle(5 * time.Second) {
			t.Fatalf("node %d's lanes never flushed", i)
		}
		var frame []byte
		for _, m := range boxes[i].take() {
			if int(m.to) == 1-i {
				frame = m.frame
			}
		}
		if frame == nil {
			t.Fatalf("node %d sent no heartbeat to node %d", i, 1-i)
		}
		return frame
	}
	for round := 0; round < 8; round++ {
		to1, to0 := cut(0), cut(1)
		nodes[1].handle(0, to1)
		nodes[0].handle(1, to0)
	}
	deltas := make([][]byte, runs+1)
	for i := range deltas {
		teach(t, nodes[0], g, rng)
		deltas[i] = cut(0)
	}
	before := nodes[1].Stats()
	next := 0
	if got := testing.AllocsPerRun(runs, func() {
		nodes[1].handle(0, deltas[next])
		next++
	}); got != 0 {
		t.Errorf("a warm delta heartbeat allocated %.2f times through handle at n = %d, want 0", got, procs)
	}
	st := nodes[1].Stats()
	if got := st.HeartbeatsReceived - before.HeartbeatsReceived; got != runs+1 {
		t.Errorf("node 1 merged %d of the %d heartbeats (stats %+v)", got, runs+1, st)
	}
	if s0 := nodes[0].Stats(); s0.DeltaHeartbeatsSent < runs+1 {
		t.Errorf("node 0 sent %d delta heartbeats, want every measured one a delta", s0.DeltaHeartbeatsSent)
	}
}

// BenchmarkHandleDuplicate is what the m[j] redundancy costs a receiver:
// one already-delivered data copy through handle.
func BenchmarkHandleDuplicate(b *testing.B) {
	nd := midChainNode(b, 32)
	f := chainFrame(b, 32, 1, "payload of a broadcast")
	nd.handle(0, f)
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
	nd := newTestNode(b, Config{ID: 1, NumProcs: procs, Neighbors: []topology.NodeID{0},
		DeliveryBuffer: 1, // deliveries overflow silently; not under test
		LaneQueueDepth: 1 << 15}, &sinkTransport{id: 1})
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

// TestEveryFrameKindReachesHandle: every frame kind wire defines reaches
// a case of the core's switch that acts on it, or its refusal, seen
// through the counter the kind bumps; a kind that fell through the switch
// would decode and be dropped without a trace. A new kind fails here
// until it has a probe below, and its probe fails until the core has a
// case for it.
func TestEveryFrameKindReachesHandle(t *testing.T) {
	counts := bayes.State{Succ: 40}
	snap := func() *knowledge.Snapshot {
		return &knowledge.Snapshot{From: 0, Seq: 1, Procs: []knowledge.ProcRecord{{ID: 2, Dist: 1, Est: counts}}}
	}
	received := func(s Stats) int { return s.HeartbeatsReceived }
	epochs := func(s Stats) int { return s.EpochChanges }
	probes := map[wire.FrameKind]struct {
		frame   *wire.Frame
		counter func(Stats) int
	}{
		// No process sends a full heartbeat: it is refused, knowledge
		// entering only through a delta.
		wire.FrameHeartbeat: {&wire.Frame{Kind: wire.FrameHeartbeat, Heartbeat: snap()}, func(s Stats) int { return s.SnapshotMergeErrors }},
		wire.FrameKnowledgeDelta: {&wire.Frame{Kind: wire.FrameKnowledgeDelta, Delta: &wire.KnowledgeDelta{
			Snap: snap(), Ver: 1, Cadence: 1,
		}}, received},
		wire.FrameData: {&wire.Frame{Kind: wire.FrameData, Data: &wire.DataMsg{
			Origin: 0, Seq: 1, Root: 0, Parents: chainParents(3), AllocByNode: twoPerEdge(chainParents(3)), Body: []byte("probe"),
		}}, func(s Stats) int { return s.DataReceived }},
		wire.FrameJoin: {&wire.Frame{Kind: wire.FrameJoin, Member: &wire.Membership{
			Node: 3, Epoch: 1, NumProcs: 4, Neighbors: []topology.NodeID{1},
		}}, epochs},
		wire.FrameLeave: {&wire.Frame{Kind: wire.FrameLeave, Member: &wire.Membership{
			Node: 2, Epoch: 1, NumProcs: 3, Departed: []topology.NodeID{2},
		}}, epochs},
	}
	for _, kind := range wire.FrameKinds() {
		p, ok := probes[kind]
		if !ok {
			t.Errorf("frame kind %d has no probe here: add one, and a case to handle", kind)
			continue
		}
		b, err := wire.Encode(p.frame)
		if err != nil {
			t.Fatal(err)
		}
		nd, _ := recordingRelay(t, 3)
		before := p.counter(nd.Stats())
		nd.handle(0, b)
		if s := nd.Stats(); s.DecodeErrors != 0 || p.counter(s) != before+1 {
			t.Errorf("frame kind %d: its counter went %d → %d (%d decode errors), want one more", kind, before, p.counter(s), s.DecodeErrors)
		}
	}
}
