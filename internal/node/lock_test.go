package node

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaptivecast/internal/bayes"
	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/topology"
	"adaptivecast/internal/transport"
	"adaptivecast/internal/wire"
)

// returnsWithin runs f on its own goroutine and fails the test when it
// has not returned after d: a call stuck on the node lock fails the test
// instead of hanging it (the stuck goroutine is left behind).
func returnsWithin(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not return within %v: it waits on a lock held elsewhere", what, d)
	}
}

// lineMiddle is node 1 of the line 0 — 1 — 2, over a sink transport,
// with a view taught the whole line so a broadcast plans a tree.
func lineMiddle(t *testing.T, cfg Config) *Node {
	t.Helper()
	g, err := topology.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ID, cfg.NumProcs, cfg.Neighbors = 1, 3, g.Neighbors(1)
	nd := newTestNode(t, cfg, &sinkTransport{id: 1})
	teach(t, nd, g, rand.New(rand.NewSource(1)))
	return nd
}

// deltaFrame is a delta heartbeat from neighbor `from` at epoch 0.
func deltaFrame(t *testing.T, from topology.NodeID, ver uint64) []byte {
	t.Helper()
	snap := &knowledge.Snapshot{From: from, Seq: ver, Procs: []knowledge.ProcRecord{
		{ID: from, Dist: 0, Est: bayes.State{Succ: 40}},
	}}
	b, err := wire.Encode(&wire.Frame{Kind: wire.FrameKnowledgeDelta,
		Delta: &wire.KnowledgeDelta{Snap: snap, Ver: ver}})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestHooksMayCallBackIntoTheNode pins the Hooks contract, "no node lock
// held": OnTreeRebuild, OnDeliver and OnDrop each read the node through
// its public API, and a broadcast that replans and a first receipt of a
// data frame both return. A hook run under the node lock would wait on
// it forever and fail the test at the deadline.
func TestHooksMayCallBackIntoTheNode(t *testing.T) {
	var nd *Node
	var rebuilds, delivers, drops atomic.Int32
	callBack := func(count *atomic.Int32) {
		nd.CrashEstimate(0)
		nd.KnownLinks()
		nd.Neighbors()
		nd.Epoch()
		nd.Stats()
		count.Add(1)
	}
	body := []byte("one body")
	nd = lineMiddle(t, Config{
		// Room for one delivery: the broadcast's is queued, the relayed
		// frame's is dropped.
		DeliveryBuffer: deliveryBytes(Delivery{Body: body}),
		Hooks: Hooks{
			OnTreeRebuild: func(uint64, int, int) { callBack(&rebuilds) },
			OnDeliver:     func(Delivery) { callBack(&delivers) },
			OnDrop:        func(Delivery) { callBack(&drops) },
		},
	})
	returnsWithin(t, 5*time.Second, "a broadcast that replans", func() {
		if _, _, err := nd.Broadcast(body); err != nil {
			t.Error(err)
		}
	})
	returnsWithin(t, 5*time.Second, "a first receipt of a data frame", func() {
		nd.handle(0, chainFrame(t, 3, 1, string(body)))
	})
	if rebuilds.Load() != 1 || delivers.Load() != 1 || drops.Load() != 1 {
		t.Errorf("hooks fired %d rebuilds, %d deliveries, %d drops; want one each",
			rebuilds.Load(), delivers.Load(), drops.Load())
	}
}

// parkedStorage is a MemStorage whose SaveMark, once armed, signals
// parked and waits for release before writing.
type parkedStorage struct {
	MemStorage
	armed   atomic.Bool
	parked  chan struct{}
	release chan struct{}
}

func (s *parkedStorage) SaveMark(at time.Time, seqFloor uint64) error {
	if s.armed.CompareAndSwap(true, false) {
		s.parked <- struct{}{}
		<-s.release
	}
	return s.MemStorage.SaveMark(at, seqFloor)
}

// TestNoDurableWriteHoldsTheNodeLock: while Tick is parked in its clock
// mark, and while a broadcast is parked extending its sequence lease,
// the handler merges a delta and delivers a data frame and the view is
// read. Released, the persisted floor covers every issued seq.
func TestNoDurableWriteHoldsTheNodeLock(t *testing.T) {
	st := &parkedStorage{parked: make(chan struct{}), release: make(chan struct{})}
	nd := lineMiddle(t, Config{Storage: st})
	var issued []uint64
	frames := uint64(0)
	others := func(what string) {
		t.Helper()
		frames++
		returnsWithin(t, 5*time.Second, what+": handling a data frame", func() {
			nd.handle(0, chainFrame(t, 3, frames, "parked"))
		})
		returnsWithin(t, 5*time.Second, what+": handling a delta", func() {
			nd.handle(0, deltaFrame(t, 0, frames))
		})
		returnsWithin(t, 5*time.Second, what+": reading an estimate", func() {
			nd.CrashEstimate(0)
		})
	}
	parkDuring := func(what string, f func()) {
		t.Helper()
		st.armed.Store(true)
		done := make(chan struct{})
		go func() {
			defer close(done)
			f()
		}()
		select {
		case <-st.parked:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s never reached stable storage", what)
		}
		others(what)
		st.release <- struct{}{}
		<-done
	}

	parkDuring("Tick in its clock mark", nd.Tick)
	parkDuring("a broadcast extending its lease", func() {
		seq, _, err := nd.Broadcast([]byte("lease"))
		if err != nil {
			t.Error(err)
		}
		issued = append(issued, seq)
	})
	for i := 0; i < 3; i++ {
		seq, _, err := nd.Broadcast([]byte("after"))
		if err != nil {
			t.Fatal(err)
		}
		issued = append(issued, seq)
	}
	nd.Tick()
	if s := nd.Stats(); s.DataReceived != 2 || s.HeartbeatsReceived != 2 || s.LogErrors != 0 {
		t.Errorf("stats %+v: want 2 data frames and 2 deltas handled, no durable-write errors", s)
	}
	_, floor, ok, err := st.LoadMark()
	if err != nil || !ok {
		t.Fatalf("no mark persisted (ok=%v, err=%v)", ok, err)
	}
	if top := slices.Max(issued); floor < top {
		t.Errorf("persisted floor %d is below issued seq %d", floor, top)
	}
}

// TestBroadcastHandleTickAndMembershipInterleave drives every entry point
// of a 4-node Fabric ring at once: four goroutines broadcast 200 times
// each from node 0, one goroutine ticks every node, the fabric runs the
// handlers, and node 0 announces node 3's departure at the midpoint.
// Every seq is issued once, every broadcast consults the plan cache once,
// no surviving node delivers a broadcast twice, and the epoch advances
// once.
func TestBroadcastHandleTickAndMembershipInterleave(t *testing.T) {
	g, err := topology.Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	fabric := transport.NewFabric(transport.FabricOptions{QueueSize: 1 << 14})
	t.Cleanup(func() { _ = fabric.Close() })
	nodes := buildCluster(t, g, fabric, nil)
	const senders, each, leaver = 4, 200, 3
	midpoint := make(chan struct{})
	var issued atomic.Int32
	seqs := make([][]uint64, senders)

	var wg, ticker sync.WaitGroup
	stopTicking := make(chan struct{})
	ticker.Add(1)
	go func() {
		defer ticker.Done()
		for {
			select {
			case <-stopTicking:
				return
			default:
			}
			for _, nd := range nodes {
				nd.Tick()
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-midpoint
		stopNode(nodes[leaver])
		if err := nodes[0].AnnounceLeaveMembership(&wire.Membership{
			Node: leaver, Epoch: 1, NumProcs: len(nodes), Departed: []topology.NodeID{leaver},
		}); err != nil {
			t.Error(err)
		}
	}()
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				seq, _, err := nodes[0].Broadcast([]byte("interleaved"))
				if err != nil {
					t.Error(err)
				}
				seqs[s] = append(seqs[s], seq)
				if issued.Add(1) == senders*each/2 {
					close(midpoint)
				}
			}
		}(s)
	}
	wg.Wait()
	close(stopTicking)
	ticker.Wait()
	for _, nd := range nodes {
		nd.WaitSendIdle(5 * time.Second)
	}

	all := slices.Concat(seqs...)
	slices.Sort(all)
	for i, seq := range all {
		if seq != uint64(i+1) {
			t.Fatalf("issued seqs %v...: position %d holds %d, want 1..%d each once", all[:min(len(all), 10)], i, seq, senders*each)
		}
	}
	if s := nodes[0].Stats(); s.PlanCacheHits+s.PlanCacheMisses != senders*each {
		t.Errorf("%d plan-cache hits + %d misses, want %d broadcasts", s.PlanCacheHits, s.PlanCacheMisses, senders*each)
	}
	type id struct {
		origin topology.NodeID
		seq    uint64
	}
	for _, nd := range nodes[:leaver] {
		seen := make(map[id]bool)
		for _, d := range drainDeliveries(nd) {
			if k := (id{d.Origin, d.Seq}); seen[k] {
				t.Errorf("node %d delivered (%d, %d) twice", nd.ID(), d.Origin, d.Seq)
			} else {
				seen[k] = true
			}
		}
		if nd.ID() == 0 && len(seen) != senders*each {
			t.Errorf("the broadcaster delivered %d of its %d broadcasts", len(seen), senders*each)
		}
	}
	for _, nd := range nodes[:leaver] {
		waitFor(t, func() bool { return nd.Epoch() == 1 }, "a survivor never adopted the leave")
		if got := nd.Stats().EpochChanges; got != 1 {
			t.Errorf("node %d changed epoch %d times, want once", nd.ID(), got)
		}
	}
}
