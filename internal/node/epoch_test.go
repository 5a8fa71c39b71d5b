package node

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"adaptivecast/internal/bayes"
	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/topology"
	"adaptivecast/internal/transport"
	"adaptivecast/internal/wire"
)

// joinNode constructs and announces a joiner into a running set of nodes:
// a fresh Node at the bumped epoch, wired to the shared fabric, declaring
// the current tombstone set.
func joinNode(t *testing.T, fabric *transport.Fabric, id topology.NodeID, numProcs int,
	neighbors []topology.NodeID, epoch uint64, departed []topology.NodeID, over Config) *Node {
	t.Helper()
	cfg := over
	cfg.ID = id
	cfg.NumProcs = numProcs
	cfg.Neighbors = neighbors
	cfg.Epoch = epoch
	cfg.Departed = departed
	nd := newTestNode(t, cfg, fabric.Endpoint(id))
	if err := nd.AnnounceJoin(); err != nil {
		t.Fatal(err)
	}
	return nd
}

// TestJoinFoldsIntoRunningCluster is the join half of the acceptance
// criteria at the runtime layer: a node announced into a converged
// cluster delivers broadcasts within 3 heartbeat periods, and the
// existing members adopt its epoch and links.
func TestJoinFoldsIntoRunningCluster(t *testing.T) {
	g, err := topology.Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	fabric := transport.NewFabric(transport.FabricOptions{})
	defer func() { _ = fabric.Close() }()
	nodes := buildCluster(t, g, fabric, nil)
	settleTicks(nodes, 30) // converged, steady-state deltas near-empty

	joiner := joinNode(t, fabric, 4, 5, []topology.NodeID{0, 2}, 1, nil, Config{})
	nodes = append(nodes, joiner)
	settleTicks(nodes, 3)

	for i, nd := range nodes {
		if got := nd.Epoch(); got != 1 {
			t.Errorf("node %d at epoch %d after join, want 1", i, got)
		}
	}
	// The named neighbors must have spliced the joiner into their roster.
	for _, id := range []int{0, 2} {
		found := false
		for _, nb := range nodes[id].Neighbors() {
			if nb == 4 {
				found = true
			}
		}
		if !found {
			t.Errorf("node %d roster %v misses the joiner", id, nodes[id].Neighbors())
		}
	}

	// Within 3 periods of the join the whole cluster — joiner included —
	// must deliver a broadcast from an original member.
	if _, _, err := nodes[1].Broadcast([]byte("post-join")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	for i, nd := range nodes {
		ds := drainDeliveries(nd)
		if len(ds) == 0 {
			t.Errorf("node %d missed the post-join broadcast", i)
		}
	}
	// And the reverse direction: the joiner's own broadcast reaches all.
	if _, _, err := joiner.Broadcast([]byte("from-joiner")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	for i, nd := range nodes {
		if ds := drainDeliveries(nd); len(ds) == 0 {
			t.Errorf("node %d missed the joiner's broadcast", i)
		}
	}
}

// TestLeaveTombstonesRecords is the leave half of the acceptance
// criteria: after a departure announcement, the remaining members'
// heartbeat payloads (full snapshots, hence every delta cut from them)
// carry no records for the departed node once the post-epoch
// full-snapshot exchange has run, and their trees route around it.
func TestLeaveTombstonesRecords(t *testing.T) {
	g, err := topology.Ring(5)
	if err != nil {
		t.Fatal(err)
	}
	fabric := transport.NewFabric(transport.FabricOptions{})
	defer func() { _ = fabric.Close() }()
	nodes := buildCluster(t, g, fabric, nil)
	settleTicks(nodes, 40)

	// Node 3 leaves; node 2 (a ring neighbor) announces.
	const leaver = topology.NodeID(3)
	stopNode(nodes[leaver])
	if err := nodes[2].AnnounceLeave(leaver); err != nil {
		t.Fatal(err)
	}
	remaining := []*Node{nodes[0], nodes[1], nodes[2], nodes[4]}
	// One full-snapshot interval: the epoch change reset every ack, so the
	// very next period ships full snapshots; give the exchange two rounds.
	settleTicks(remaining, 2)

	for _, nd := range remaining {
		if got := nd.Epoch(); got != 1 {
			t.Errorf("node %d at epoch %d after leave, want 1", nd.ID(), got)
		}
		nd.mu.Lock()
		snap := nd.view.Snapshot()
		nd.mu.Unlock()
		for _, pr := range snap.Procs {
			if pr.ID == leaver {
				t.Errorf("node %d heartbeat still carries a record for departed %d", nd.ID(), leaver)
			}
		}
		for _, lr := range snap.Links {
			if lr.Link.A == leaver || lr.Link.B == leaver {
				t.Errorf("node %d heartbeat still carries link %v of departed %d", nd.ID(), lr.Link, leaver)
			}
		}
		for _, nb := range nd.Neighbors() {
			if nb == leaver {
				t.Errorf("node %d roster still lists departed %d", nd.ID(), leaver)
			}
		}
	}

	// Broadcasts still span the survivors (the ring lost one hop but
	// stays connected: 4-0-1-2 plus the 2—4 gap routed the long way).
	if _, _, err := nodes[0].Broadcast([]byte("post-leave")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	for _, nd := range remaining {
		if ds := drainDeliveries(nd); len(ds) == 0 {
			t.Errorf("node %d missed the post-leave broadcast", nd.ID())
		}
	}
}

// TestStaleEpochFramesFencedAndRepaired pins the epoch gate: a member
// that missed a membership change keeps sending frames at the old epoch;
// the receiver fences them (StaleEpochFrames) and re-announces, after
// which the laggard catches up — several epochs in one step, because
// announcements carry the complete roster.
func TestStaleEpochFramesFencedAndRepaired(t *testing.T) {
	g, err := topology.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	fabric := transport.NewFabric(transport.FabricOptions{})
	defer func() { _ = fabric.Close() }()
	nodes := buildCluster(t, g, fabric, nil)
	settleTicks(nodes, 10)

	// Apply two membership changes directly to node 0 only (simulating a
	// flood node 2 never saw; node 1 relays nothing here because the
	// announcements are injected, not flooded).
	m1 := &wire.Membership{Node: 3, Epoch: 1, NumProcs: 4, Neighbors: []topology.NodeID{0}}
	m2 := &wire.Membership{Node: 4, Epoch: 2, NumProcs: 5, Neighbors: []topology.NodeID{0}}
	if lc, _ := nodes[0].applyMembership(wire.FrameJoin, m1); lc == nil {
		t.Fatal("membership not applied")
	}
	if lc, _ := nodes[0].applyMembership(wire.FrameJoin, m2); lc == nil {
		t.Fatal("membership not applied")
	}
	if nodes[0].Epoch() != 2 {
		t.Fatalf("node 0 at epoch %d, want 2", nodes[0].Epoch())
	}

	// Node 1 still heartbeats at epoch 0: node 0 must fence those frames
	// and the repair loop must pull node 1 (and transitively node 2) to
	// epoch 2 within a few periods. Node 1 ticks first, on its own: in a
	// shared round node 0's re-announcement can reach it before it has
	// sent anything at the old epoch.
	nodes[1].Tick()
	settleTicks(nodes, 4)
	if got := nodes[0].Stats().StaleEpochFrames; got == 0 {
		t.Error("no stale-epoch frames counted at node 0")
	}
	for i, nd := range nodes {
		if got := nd.Epoch(); got != 2 {
			t.Errorf("node %d stuck at epoch %d, want 2 (re-announcement repair broken)", i, got)
		}
	}
}

// fenceState is what an off-epoch frame must leave alone at a node: what
// it delivered, its view's version and the ack bookkeeping it keeps for
// peer 0, plus the count of fenced stale frames.
type fenceState struct {
	delivered, stale int
	version          uint64
	acked, seen      uint64
}

func fenceStateOf(nd *Node) fenceState {
	s := nd.Stats()
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return fenceState{
		delivered: s.Delivered, stale: s.StaleEpochFrames,
		version: nd.view.Version(), acked: nd.hb.Acked(0), seen: nd.hb.Seen(0),
	}
}

// TestEpochFenceDropsOffEpochFrames: a well-formed data or delta frame
// from a real neighbour at another epoch than the node's is dropped
// whole. Nothing is delivered or relayed, and neither the view nor the
// sender's ack bookkeeping moves. An older epoch counts as a stale frame
// and earns the sender one re-announcement per heartbeat period; a newer
// one is dropped silently. The same frame at the node's epoch is
// processed, so the frames are ones the node would act on.
func TestEpochFenceDropsOffEpochFrames(t *testing.T) {
	const epoch = 2
	counts := bayes.State{Succ: 40}
	frames := map[string]func(seq, epoch uint64) *wire.Frame{
		// Broadcast (0, seq) on the chain 0 — 1 — 2: node 1 relays to 2.
		"data": func(seq, epoch uint64) *wire.Frame {
			return &wire.Frame{Kind: wire.FrameData, Data: &wire.DataMsg{
				Origin: 0, Seq: seq, Root: 0, Parents: chainParents(3), AllocByNode: twoPerEdge(chainParents(3)),
				Body: []byte("fenced"), Epoch: epoch,
			}}
		},
		// A full delta from 0 teaching node 1 about process 2.
		"delta": func(seq, epoch uint64) *wire.Frame {
			return &wire.Frame{Kind: wire.FrameKnowledgeDelta, Delta: &wire.KnowledgeDelta{
				Snap: &knowledge.Snapshot{From: 0, Seq: seq, Procs: []knowledge.ProcRecord{{ID: 2, Dist: 1, Est: counts}}},
				Ver:  seq, Ack: seq, Cadence: 1, Epoch: epoch,
			}}
		},
	}
	for _, kind := range []string{"data", "delta"} {
		for _, tc := range []struct {
			name  string
			epoch uint64
			stale bool
		}{{"older", epoch - 1, true}, {"newer", epoch + 1, false}} {
			t.Run(kind+"/"+tc.name, func(t *testing.T) {
				nd, rec := newRecorded(t, Config{ID: 1, NumProcs: 3, Neighbors: []topology.NodeID{0, 2}, Epoch: epoch})
				handle := func(seq, epoch uint64) {
					b, err := wire.Encode(frames[kind](seq, epoch))
					if err != nil {
						t.Fatal(err)
					}
					nd.handle(0, b)
				}
				var want []sentTo
				if tc.stale {
					want = []sentTo{{to: 0, copies: 1}} // the re-announcement
				}
				seq := uint64(1)
				for period := 0; period < 2; period++ {
					rec.take(t) // what Tick sent
					for i := 0; i < 3; i++ {
						before := fenceStateOf(nd)
						handle(seq, tc.epoch)
						seq++
						after := fenceStateOf(nd)
						if tc.stale {
							before.stale++
						}
						if after != before {
							t.Errorf("period %d, frame %d at epoch %d: state %+v, want %+v", period, i, tc.epoch, after, before)
						}
					}
					if got := rec.take(t); !slices.Equal(got, want) {
						t.Errorf("period %d: three frames at epoch %d sent %v, want %v", period, tc.epoch, got, want)
					}
					nd.Tick()
				}

				rec.take(t)
				before := fenceStateOf(nd)
				handle(seq, epoch)
				after := fenceStateOf(nd)
				sent := rec.take(t)
				switch kind {
				case "data":
					if after.delivered != before.delivered+1 || !slices.Equal(sent, []sentTo{{to: 2, copies: 2}}) {
						t.Errorf("at the node's epoch: delivered %d → %d, sent %v; want one delivery and the relay to 2",
							before.delivered, after.delivered, sent)
					}
				case "delta":
					if after.version == before.version || after.seen != seq || after.acked != seq {
						t.Errorf("at the node's epoch: %+v → %+v; want the view merged and peer 0 seen and acked at %d", before, after, seq)
					}
				}
			})
		}
	}
}

// TestRestartInGrownClusterResumesAboveSeqLease is the satellite
// regression test: a node that crashed and restarted inside a grown
// (epoch > 0) cluster must resume broadcasting above its persisted
// sequence lease, exactly as in a static cluster.
func TestRestartInGrownClusterResumesAboveSeqLease(t *testing.T) {
	g, err := topology.Line(2)
	if err != nil {
		t.Fatal(err)
	}
	fabric := transport.NewFabric(transport.FabricOptions{})
	defer func() { _ = fabric.Close() }()
	store := &MemStorage{}
	nodes := buildCluster(t, g, fabric, func(i int) Config {
		if i == 0 {
			return Config{Storage: store}
		}
		return Config{}
	})
	settleTicks(nodes, 5)

	// Grow the cluster, then issue a few pre-crash broadcasts (extending
	// the lease past seq 1, i.e. to 1+seqLeaseBatch).
	joiner := joinNode(t, fabric, 2, 3, []topology.NodeID{1}, 1, nil, Config{})
	nodes = append(nodes, joiner)
	settleTicks(nodes, 3)
	var lastSeq uint64
	for i := 0; i < 3; i++ {
		seq, _, err := nodes[0].Broadcast([]byte("pre-crash"))
		if err != nil {
			t.Fatal(err)
		}
		lastSeq = seq
	}

	// Crash and restart node 0 inside the grown cluster.
	stopNode(nodes[0])
	restarted := newTestNode(t, Config{
		ID: 0, NumProcs: 3, Neighbors: g.Neighbors(0),
		Epoch:   1,
		Storage: store,
	}, fabric.Endpoint(0))
	seq, _, err := restarted.Broadcast([]byte("post-restart"))
	if err != nil {
		t.Fatal(err)
	}
	if seq <= lastSeq {
		t.Errorf("post-restart seq %d not above pre-crash seq %d", seq, lastSeq)
	}
	if seq <= uint64(seqLeaseBatch) {
		t.Errorf("post-restart seq %d not above the persisted lease %d", seq, seqLeaseBatch)
	}
}

// TestEpochStatsRaceClean hammers Stats snapshots against concurrent
// membership changes, ticks and inbound frames; run under -race it pins
// the satellite requirement that the new epoch counters follow the
// atomic-counter pattern instead of adding a lock.
func TestEpochStatsRaceClean(t *testing.T) {
	g, err := topology.Line(2)
	if err != nil {
		t.Fatal(err)
	}
	fabric := transport.NewFabric(transport.FabricOptions{})
	defer func() { _ = fabric.Close() }()
	nodes := buildCluster(t, g, fabric, nil)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = nodes[0].Stats()
				_ = nodes[0].Epoch()
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			nodes[0].Tick()
			nodes[1].Tick()
		}
	}()
	for e := uint64(1); e <= 20; e++ {
		nodes[0].applyMembership(wire.FrameJoin, &wire.Membership{
			Node: topology.NodeID(1 + e), Epoch: e, NumProcs: int(2 + e),
			Neighbors: []topology.NodeID{0},
		})
	}
	close(stop)
	wg.Wait()
	if got := nodes[0].Stats().EpochChanges; got != 20 {
		t.Errorf("EpochChanges = %d, want 20", got)
	}
}

// TestDeltaConvergesToFullAcrossChurn extends the delta-vs-full property
// harness with a random join/leave schedule under loss: delta heartbeats
// plus the ack chain must converge to the same estimates as full
// snapshots (forgetAcks before every period), and both modes must agree
// on the final membership.
func TestDeltaConvergesToFullAcrossChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("churn property schedule is long")
	}
	for _, seed := range []int64{11, 42} {
		type event struct {
			period int
			join   bool
			leaver topology.NodeID
			nbs    []topology.NodeID
		}
		// Derive one schedule per seed, shared verbatim by both modes.
		// Joiners always link to node 0 (which never leaves), so a later
		// departure cannot strand them.
		rng := rand.New(rand.NewSource(seed))
		schedule := []event{
			{period: 40, join: true, nbs: []topology.NodeID{0, topology.NodeID(1 + rng.Intn(3))}},
			{period: 80, leaver: topology.NodeID(1 + rng.Intn(3))},
			{period: 120, join: true, nbs: []topology.NodeID{0}},
		}

		run := func(full bool) []*Node {
			g, err := topology.Ring(4)
			if err != nil {
				t.Fatal(err)
			}
			fabric := transport.NewFabric(transport.FabricOptions{Seed: seed})
			t.Cleanup(func() { _ = fabric.Close() })
			nodes := buildCluster(t, g, fabric, nil)
			for li := 0; li < g.NumLinks(); li++ {
				l := g.Link(li)
				if err := fabric.SetLoss(l.A, l.B, 0.2); err != nil {
					t.Fatal(err)
				}
			}
			epoch := uint64(0)
			alive := func() []*Node {
				out := nodes[:0:0]
				for _, nd := range nodes {
					if nd != nil {
						out = append(out, nd)
					}
				}
				return out
			}
			departed := []topology.NodeID(nil)
			for p := 0; p < 170; p++ {
				for _, ev := range schedule {
					if ev.period != p {
						continue
					}
					epoch++
					if ev.join {
						id := topology.NodeID(len(nodes))
						nd := joinNode(t, fabric, id, len(nodes)+1, ev.nbs, epoch,
							append([]topology.NodeID(nil), departed...), Config{})
						nodes = append(nodes, nd)
					} else {
						stopNode(nodes[ev.leaver])
						nodes[ev.leaver] = nil
						departed = append(departed, ev.leaver)
						// Node 0 never leaves in these schedules; it announces.
						if err := nodes[0].AnnounceLeave(ev.leaver); err != nil {
							t.Fatal(err)
						}
					}
				}
				if p == 140 {
					// Calm phase: lossless links let acks repair fully.
					for li := 0; li < g.NumLinks(); li++ {
						l := g.Link(li)
						if err := fabric.SetLoss(l.A, l.B, 0); err != nil {
							t.Fatal(err)
						}
					}
				}
				if full {
					forgetAcks(alive())
				}
				for _, nd := range alive() {
					nd.Tick()
				}
				time.Sleep(time.Millisecond)
			}
			return nodes
		}

		deltaNodes := run(false)
		fullNodes := run(true)
		if len(deltaNodes) != len(fullNodes) {
			t.Fatalf("seed %d: modes disagree on node count", seed)
		}
		for i := range deltaNodes {
			if (deltaNodes[i] == nil) != (fullNodes[i] == nil) {
				t.Fatalf("seed %d: modes disagree on membership of %d", seed, i)
			}
			if deltaNodes[i] == nil {
				continue
			}
			if de, fe := deltaNodes[i].Epoch(), fullNodes[i].Epoch(); de != fe {
				t.Errorf("seed %d: node %d epoch %d on deltas vs %d on full", seed, i, de, fe)
			}
			for p := 0; p < len(deltaNodes); p++ {
				mD, dD := deltaNodes[i].CrashEstimate(topology.NodeID(p))
				mF, dF := fullNodes[i].CrashEstimate(topology.NodeID(p))
				if (dD == math.MaxInt32) != (dF == math.MaxInt32) {
					t.Errorf("seed %d: node %d knows of process %d in one mode only", seed, i, p)
					continue
				}
				if math.Abs(mD-mF) > 0.06 {
					t.Errorf("seed %d: node %d estimate of %d diverged: delta=%v full=%v",
						seed, i, p, mD, mF)
				}
			}
			if dl, fl := len(deltaNodes[i].KnownLinks()), len(fullNodes[i].KnownLinks()); dl != fl {
				t.Errorf("seed %d: node %d knows %d links on deltas vs %d on full", seed, i, dl, fl)
			}
		}
	}
}

// TestBorrowDecodeOnFabric pins the zero-copy receive path end to end on
// a transport that lends its frames: the Fabric takes each frame's buffer
// back when the handler returns and reuses it for a later frame, so the
// node decodes borrowing the buffer and copies only what outlives the
// call — the body it delivers and the frame it relays. On the line
// 0 — 1 — 2 every body node 2 delivers is still intact after more than
// 100 later frames have reused the lent buffers, and node 1's application
// editing each body it is handed — in the OnDeliver hook, which runs
// before the relay is made — changes nothing node 2 receives.
func TestBorrowDecodeOnFabric(t *testing.T) {
	const msgs = 120
	g, err := topology.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	fabric := transport.NewFabric(transport.FabricOptions{})
	defer func() { _ = fabric.Close() }()
	scribble := func(d Delivery) {
		for i := range d.Body {
			d.Body[i] = 'X'
		}
	}
	nodes := make([]*Node, g.NumNodes())
	for i := range nodes {
		id := topology.NodeID(i)
		c := Config{ID: id, NumProcs: len(nodes), Neighbors: g.Neighbors(id)}
		if id == 1 {
			c.Hooks.OnDeliver = scribble
		}
		nodes[i] = newTestNode(t, c, fabric.Endpoint(id))
	}
	if nodes[1].ownsFrames {
		t.Fatal("the node takes the Fabric's lent frames for its own")
	}
	settleTicks(nodes, 3)
	body := func(i int) string { return fmt.Sprintf("payload-%03d", i) }
	var kept []Delivery
	for i := 0; i < msgs; i++ {
		if _, _, err := nodes[0].Broadcast([]byte(body(i))); err != nil {
			t.Fatal(err)
		}
		d := waitDelivery(t, nodes[2])
		if string(d.Body) != body(i) {
			t.Fatalf("node 2's delivery %d reads %q, want %q: node 1's edit reached its relay", i, d.Body, body(i))
		}
		kept = append(kept, d)
		if d := waitDelivery(t, nodes[1]); string(d.Body) != strings.Repeat("X", len(body(i))) {
			t.Fatalf("node 1's delivery %d reads %q after its application edited it", i, d.Body)
		}
	}
	for i, d := range kept {
		if string(d.Body) != body(i) {
			t.Fatalf("node 2's delivery %d reads %q after %d later broadcasts, want %q", i, d.Body, msgs-1-i, body(i))
		}
	}
}
