package node

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"adaptivecast/internal/bayes"
	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/topology"
	"adaptivecast/internal/transport"
	"adaptivecast/internal/wire"
)

// tapTransport wraps a fabric endpoint and records every outbound frame
// per destination, so tests can audit the wire profile a node actually
// speaks toward each peer.
type tapTransport struct {
	transport.Transport
	mu   sync.Mutex
	sent map[topology.NodeID][][]byte
}

func newTap(tr transport.Transport) *tapTransport {
	return &tapTransport{Transport: tr, sent: make(map[topology.NodeID][][]byte)}
}

func (tp *tapTransport) Send(to topology.NodeID, frame []byte) error {
	tp.mu.Lock()
	tp.sent[to] = append(tp.sent[to], append([]byte(nil), frame...))
	tp.mu.Unlock()
	return tp.Transport.Send(to, frame)
}

func (tp *tapTransport) count(to topology.NodeID) int {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	return len(tp.sent[to])
}

func (tp *tapTransport) frames(to topology.NodeID) [][]byte {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	out := make([][]byte, len(tp.sent[to]))
	copy(out, tp.sent[to])
	return out
}

// buildClusterOver is buildCluster with every node's fabric endpoint
// passed through wrap.
func buildClusterOver(t *testing.T, g *topology.Graph, fabric *transport.Fabric, cfg Config,
	wrap func(i int, tr transport.Transport) transport.Transport) []*Node {
	t.Helper()
	nodes := make([]*Node, g.NumNodes())
	for i := range nodes {
		c := cfg
		c.ID, c.NumProcs, c.Neighbors = topology.NodeID(i), g.NumNodes(), g.Neighbors(topology.NodeID(i))
		nodes[i] = newTestNode(t, c, wrap(i, fabric.Endpoint(topology.NodeID(i))))
	}
	return nodes
}

// The tests below keep the names they had when the compact profile was
// the opt-in v4 quantized encoding with per-peer negotiation; what they
// pin today is the one dialect every node speaks: v5 evidence counts for
// every non-empty record section, the oldest header that fits for every
// empty one.

// TestQuantizedClusterNegotiates: a default cluster ships evidence counts
// with no option set — nobody mis-decodes anything, and the knowledge
// plane is complete.
func TestQuantizedClusterNegotiates(t *testing.T) {
	g, err := topology.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	fabric := transport.NewFabric(transport.FabricOptions{})
	defer func() { _ = fabric.Close() }()
	nodes := buildCluster(t, g, fabric, nil)
	settleTicks(nodes, 120)
	for i, nd := range nodes {
		s := nd.Stats()
		if s.CountHeartbeatsSent == 0 {
			t.Errorf("node %d never sent a count heartbeat", i)
		}
		if s.DecodeErrors != 0 {
			t.Errorf("node %d hit %d decode errors on v5 traffic", i, s.DecodeErrors)
		}
		if got := len(nd.KnownLinks()); got != 2 {
			t.Errorf("node %d knows %d links, want 2", i, got)
		}
	}
	// Essentially all of a node's heartbeats that carry records ride the
	// count layout.
	s := nodes[1].Stats()
	if s.CountHeartbeatsSent*2 < s.HeartbeatsSent {
		t.Errorf("middle node sent %d count heartbeats of %d", s.CountHeartbeatsSent, s.HeartbeatsSent)
	}
}

// TestQuantizedFullHeartbeats: full-snapshot heartbeats (settleFullTicks,
// every frame the since = 0 fallback) always carry records, so every one
// of them ships counts, from the first period on.
func TestQuantizedFullHeartbeats(t *testing.T) {
	g, err := topology.Line(2)
	if err != nil {
		t.Fatal(err)
	}
	fabric := transport.NewFabric(transport.FabricOptions{})
	defer func() { _ = fabric.Close() }()
	nodes := buildCluster(t, g, fabric, nil)
	settleFullTicks(nodes, 50)
	for i, nd := range nodes {
		s := nd.Stats()
		if s.DecodeErrors != 0 {
			t.Errorf("node %d hit %d decode errors", i, s.DecodeErrors)
		}
		if s.DeltaHeartbeatsSent != 0 {
			t.Errorf("node %d cut %d deltas on the full-snapshot reference", i, s.DeltaHeartbeatsSent)
		}
		if s.HeartbeatsSent == 0 || s.CountHeartbeatsSent != s.HeartbeatsSent {
			t.Errorf("node %d sent %d count heartbeats of %d full heartbeats, want all of them",
				i, s.CountHeartbeatsSent, s.HeartbeatsSent)
		}
	}
}

// wireCluster is a deterministic stand-in for a cluster's heartbeat
// plane: one knowledge view per process, every period each view's full
// snapshot encoded, put through a seeded loss schedule, decoded and
// merged at each neighbor — the real wire and merge code with no clocks
// or goroutines, so two runs that differ only in wire layout see the
// same frames arrive.
type wireCluster struct {
	g     *topology.Graph
	views []*knowledge.View
	v5    []bool // which processes speak the count layout
}

func newWireCluster(t *testing.T, g *topology.Graph, v5 func(i int) bool) *wireCluster {
	t.Helper()
	wc := &wireCluster{g: g}
	for i := 0; i < g.NumNodes(); i++ {
		v, err := knowledge.NewView(topology.NodeID(i), g.NumNodes(), g.Neighbors(topology.NodeID(i)), nil, knowledge.Params{})
		if err != nil {
			t.Fatal(err)
		}
		wc.views = append(wc.views, v)
		wc.v5 = append(wc.v5, v5(i))
	}
	return wc
}

// period runs one heartbeat period; loss is the per-frame drop
// probability drawn from rng in a fixed (sender, neighbor) order.
func (wc *wireCluster) period(t *testing.T, rng *rand.Rand, loss float64) {
	t.Helper()
	for _, v := range wc.views {
		v.BeginPeriod()
	}
	for i, v := range wc.views {
		snap := v.Snapshot()
		for _, nb := range wc.g.Neighbors(topology.NodeID(i)) {
			if rng.Float64() < loss {
				continue
			}
			var caps uint64
			if wc.v5[i] && wc.v5[nb] {
				caps = wire.CapsCounts
			}
			b, err := wire.Encode(&wire.Frame{Kind: wire.FrameHeartbeat, Heartbeat: snap, Caps: caps})
			if err != nil {
				t.Fatal(err)
			}
			f, err := wire.Decode(b)
			if err != nil {
				t.Fatal(err)
			}
			if err := wc.views[nb].MergeSnapshot(f.Heartbeat); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestQuantizedEstimateParity is the differential test that replaced
// the v4 profile's 0.05/0.08 tolerances: on identical random loss
// schedules, a cluster exchanging evidence counts, a cluster exchanging
// raw belief vectors and a mixed one land on posterior means that agree
// to <= 1e-12 at every node for every process and link, and every node
// plans the identical (tree, allocation, Σ m[j]).
func TestQuantizedEstimateParity(t *testing.T) {
	for _, seed := range []int64{7, 42, 1234} {
		g, err := topology.RandomConnected(8, 2, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		run := func(v5 func(i int) bool) *wireCluster {
			wc := newWireCluster(t, g, v5)
			rng := rand.New(rand.NewSource(seed))
			for p := 0; p < 150; p++ {
				wc.period(t, rng, 0.25)
			}
			for p := 0; p < 50; p++ {
				wc.period(t, rng, 0.02)
			}
			return wc
		}
		raw := run(func(int) bool { return false })
		for name, other := range map[string]*wireCluster{
			"counts": run(func(int) bool { return true }),
			"mixed":  run(func(i int) bool { return i%2 == 0 }),
		} {
			for i, rv := range raw.views {
				ov := other.views[i]
				for p := 0; p < g.NumNodes(); p++ {
					mr, dr := rv.CrashEstimate(topology.NodeID(p))
					mo, do := ov.CrashEstimate(topology.NodeID(p))
					if dr != do || math.Abs(mr-mo) > 1e-12 {
						t.Errorf("seed %d %s: node %d estimates process %d at (%v, dist %d), raw cluster (%v, dist %d)",
							seed, name, i, p, mo, do, mr, dr)
					}
				}
				links := rv.KnownLinks()
				if len(ov.KnownLinks()) != len(links) {
					t.Fatalf("seed %d %s: node %d knows %d links, raw cluster %d", seed, name, i, len(ov.KnownLinks()), len(links))
				}
				for _, l := range links {
					mr, dr, _ := rv.LossEstimate(l)
					mo, do, ok := ov.LossEstimate(l)
					if !ok || dr != do || math.Abs(mr-mo) > 1e-12 {
						t.Errorf("seed %d %s: node %d estimates link %v at (%v, dist %d), raw cluster (%v, dist %d)",
							seed, name, i, l, mo, do, mr, dr)
					}
				}
				pr := freshPlan(rv, topology.NodeID(i), DefaultK)
				po := freshPlan(ov, topology.NodeID(i), DefaultK)
				if pr.err != nil || po.err != nil {
					t.Fatalf("seed %d %s: node %d cannot plan: %v / %v", seed, name, i, pr.err, po.err)
				}
				if !reflect.DeepEqual(pr.parents, po.parents) || !reflect.DeepEqual(pr.alloc, po.alloc) || pr.planned != po.planned {
					t.Errorf("seed %d %s: node %d plans (%v, %v, Σ=%d), raw cluster (%v, %v, Σ=%d)",
						seed, name, i, po.parents, po.alloc, po.planned, pr.parents, pr.alloc, pr.planned)
				}
			}
		}
	}
}

// alarmingHeartbeat settles a Line(2) and returns node 0 with a raw v1
// heartbeat from node 1 carrying a close, alarming estimate of node 1
// that node 0 would adopt from any frame it accepts.
func alarmingHeartbeat(t *testing.T) (*Node, []byte) {
	t.Helper()
	g, err := topology.Line(2)
	if err != nil {
		t.Fatal(err)
	}
	fabric := transport.NewFabric(transport.FabricOptions{})
	t.Cleanup(func() { _ = fabric.Close() })
	nodes := buildCluster(t, g, fabric, nil)
	settleTicks(nodes, 20)

	alarming := bayes.State{Intervals: bayes.DefaultIntervals, Fail: 500}
	snap := &knowledge.Snapshot{From: 1, Seq: 1 << 20, Procs: []knowledge.ProcRecord{
		{ID: 1, Dist: 0, Est: bayes.State{Intervals: bayes.DefaultIntervals, LogBeliefs: alarming.AppendLogBeliefs(nil)}},
	}}
	v1, err := wire.Encode(&wire.Frame{Kind: wire.FrameHeartbeat, Heartbeat: snap})
	if err != nil {
		t.Fatal(err)
	}
	if v1[1] != 1 {
		t.Fatalf("raw heartbeat encoded at version %d, want 1", v1[1])
	}
	return nodes[0], v1
}

// rejectedWhole hands nd the retired frame bad, which must book exactly
// one DecodeErrors and move nothing, and then good, the same heartbeat in
// a live shape, which must merge: the retired shape alone was refused.
func rejectedWhole(t *testing.T, nd *Node, what string, bad, good []byte) {
	t.Helper()
	state := func() (Stats, uint64, float64) {
		nd.mu.Lock()
		defer nd.mu.Unlock()
		mean, _ := nd.view.CrashEstimate(1)
		return nd.Stats(), nd.view.Version(), mean
	}
	before, ver, mean := state()
	nd.handle(1, bad)
	after, verAfter, meanAfter := state()
	if got := after.DecodeErrors - before.DecodeErrors; got != 1 {
		t.Errorf("the %s booked %d decode errors, want 1", what, got)
	}
	if after.HeartbeatsReceived != before.HeartbeatsReceived || after.SnapshotMergeErrors != before.SnapshotMergeErrors {
		t.Errorf("the %s reached the merge: heartbeats %d → %d, merge errors %d → %d",
			what, before.HeartbeatsReceived, after.HeartbeatsReceived, before.SnapshotMergeErrors, after.SnapshotMergeErrors)
	}
	if verAfter != ver || meanAfter != mean {
		t.Errorf("the %s moved the view: version %d → %d, estimate of 1 %v → %v", what, ver, verAfter, mean, meanAfter)
	}

	nd.handle(1, good)
	merged, _, meanMerged := state()
	if merged.HeartbeatsReceived != after.HeartbeatsReceived+1 || meanMerged <= 0.5 {
		t.Errorf("the heartbeat the %s was made from was not merged: heartbeats %d → %d, estimate of 1 %v",
			what, after.HeartbeatsReceived, merged.HeartbeatsReceived, meanMerged)
	}
}

// TestQuantizedMixedCluster: a retired wire v4 frame sent at a live node
// is rejected whole. The frame is a v4 heartbeat around raw estimator
// layouts, the shape a v4 binary sent: it books exactly one DecodeErrors
// and merges nothing, and the same heartbeat at version 1 is then merged,
// so the version alone is what was refused.
func TestQuantizedMixedCluster(t *testing.T) {
	nd, v1 := alarmingHeartbeat(t)
	// A v4 heartbeat is a v1 heartbeat with a caps varint after the header.
	v4 := append([]byte{v1[0], 4, v1[2], 4}, v1[3:]...)
	rejectedWhole(t, nd, "v4 frame", v4, v1)
}

// TestRefinedGridFrameRejected: a heartbeat whose estimator rides the
// retired refined-grid layout — flags 0x00, then the midpoints shipped
// explicitly — is rejected whole at a live node, as a v4 frame is, even
// when its midpoints are the uniform grid's: one DecodeErrors, nothing
// merged. The same estimate in the raw layout then merges.
func TestRefinedGridFrameRejected(t *testing.T) {
	nd, v1 := alarmingHeartbeat(t)
	const u = bayes.DefaultIntervals
	at := bytes.Index(v1, []byte{1, u, u}) // the raw layout's flag, U and belief count
	if at < 0 {
		t.Fatal("no raw estimator in the heartbeat")
	}
	refined := append([]byte(nil), v1[:at]...)
	refined = append(refined, 0, u) // the refined-grid flag and its midpoint count
	for i := 0; i < u; i++ {
		refined = binary.LittleEndian.AppendUint64(refined, math.Float64bits(float64(2*i+1)/float64(2*u)))
	}
	refined = append(refined, v1[at+2:]...) // the belief count and vector, unchanged
	rejectedWhole(t, nd, "refined-grid frame", refined, v1)
}

// TestQuantizedLegacyFrameDiscipline audits every frame a node in a
// default cluster sends, from its first period: every heartbeat or delta
// whose record section is non-empty is a v5 frame with Caps = CapsCounts
// whose records all ride the count layout, every empty one is a header of
// version 3 or less, every data frame is v1 or v3, and no frame is v4.
func TestQuantizedLegacyFrameDiscipline(t *testing.T) {
	g, err := topology.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	fabric := transport.NewFabric(transport.FabricOptions{})
	defer func() { _ = fabric.Close() }()

	tap := newTap(fabric.Endpoint(1))
	nodes := buildClusterOver(t, g, fabric, Config{}, func(i int, tr transport.Transport) transport.Transport {
		if i == 1 {
			return tap
		}
		return tr
	})
	settleTicks(nodes, 200) // long enough for the deltas to go empty
	if _, _, err := nodes[1].Broadcast([]byte("audit")); err != nil {
		t.Fatal(err)
	}
	settleTicks(nodes, 40)

	v5, empty, data := 0, 0, 0
	for _, to := range g.Neighbors(1) {
		for fi, b := range tap.frames(to) {
			f, err := wire.Decode(b)
			if err != nil {
				t.Fatalf("frame %d to %d does not decode: %v", fi, to, err)
			}
			var snap *knowledge.Snapshot
			var caps uint64
			switch f.Kind {
			case wire.FrameHeartbeat:
				snap, caps = f.Heartbeat, f.Caps
			case wire.FrameKnowledgeDelta:
				snap, caps = f.Delta.Snap, f.Delta.Caps
			case wire.FrameData:
				data++
				if b[1] != 1 && b[1] != 3 {
					t.Errorf("data frame %d to %d at version %d", fi, to, b[1])
				}
				continue
			case wire.FrameJoin, wire.FrameLeave:
				t.Fatalf("frame %d to %d: membership frame in a static cluster", fi, to)
			}
			if len(snap.Procs)+len(snap.Links) == 0 {
				empty++
				if b[1] > 3 || caps != 0 {
					t.Errorf("empty frame %d to %d at version %d with caps %d", fi, to, b[1], caps)
				}
				continue
			}
			v5++
			if b[1] != 5 || caps != wire.CapsCounts {
				t.Errorf("non-empty frame %d to %d at version %d with caps %d", fi, to, b[1], caps)
			}
			for _, pr := range snap.Procs {
				if !pr.Est.IsCounts() {
					t.Errorf("frame %d to %d: process %d record rode a raw layout", fi, to, pr.ID)
				}
			}
			for _, lr := range snap.Links {
				if !lr.Est.IsCounts() {
					t.Errorf("frame %d to %d: link %v record rode a raw layout", fi, to, lr.Link)
				}
			}
		}
	}
	if v5 == 0 || empty == 0 || data == 0 {
		t.Fatalf("tap saw %d non-empty, %d empty and %d data frames; the audit needs all three", v5, empty, data)
	}
	if got := nodes[1].Stats().CountHeartbeatsSent; got != v5 {
		t.Errorf("CountHeartbeatsSent = %d but %d v5 frames crossed the tap", got, v5)
	}
	for i, nd := range nodes {
		if errs := nd.Stats().DecodeErrors; errs != 0 {
			t.Errorf("node %d hit %d decode errors", i, errs)
		}
	}
}

// TestSuspicionScopedToSuspectLink is the cadence-satellite regression
// test: when one neighbor dies, the suspecting node pins ONLY the
// suspect's link at the δ cadence — the healthy link re-stretches once
// the suspicion news is acked, instead of the whole node snapping back
// for as long as the suspicion lasts.
func TestSuspicionScopedToSuspectLink(t *testing.T) {
	g, err := topology.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	fabric := transport.NewFabric(transport.FabricOptions{})
	defer func() { _ = fabric.Close() }()

	var tap *tapTransport
	nodes := make([]*Node, 3)
	for i := 0; i < 3; i++ {
		tr := fabric.Endpoint(topology.NodeID(i))
		if i == 1 {
			tap = newTap(tr)
			tr = tap
		}
		nodes[i] = newTestNode(t, Config{
			ID:                 topology.NodeID(i),
			NumProcs:           3,
			Neighbors:          g.Neighbors(topology.NodeID(i)),
			AdaptiveCadenceMax: 4,
		}, tr)
	}
	settleTicks(nodes, 400)

	// tick01 paces the two survivors one period and drains the async send
	// path (lane scheduler, fabric goroutines) with settleTicks' counting
	// drain. Node 1's frames toward the stopped node 2 are never handled,
	// so each round ends on the drain's quiet poll.
	tick01 := func() { settleTicks(nodes[:2], 1) }

	// Crash node 2 and tick until node 1 suspects it.
	stopNode(nodes[2])
	suspected := func() bool {
		tick01()
		nodes[1].mu.Lock()
		defer nodes[1].mu.Unlock()
		return nodes[1].view.Suspected(2)
	}
	fired := false
	for p := 0; p < 64 && !fired; p++ {
		fired = suspected()
	}
	if !fired {
		t.Fatal("node 1 never suspected the crashed neighbor")
	}

	// Let the suspicion news get acked and the healthy link re-stretch,
	// then measure a steady window.
	for p := 0; p < 16; p++ {
		tick01()
	}
	healthyBefore, suspectBefore := tap.count(0), tap.count(2)
	const window = 48
	for p := 0; p < window; p++ {
		tick01()
	}
	toHealthy := tap.count(0) - healthyBefore
	toSuspect := tap.count(2) - suspectBefore

	// The suspect's link stays pinned at δ: one frame every period.
	if toSuspect < window-6 {
		t.Errorf("suspect link got %d frames over %d periods, want ~%d (δ cadence)", toSuspect, window, window)
	}
	// The healthy link must NOT be pinned: periodic Event-2 suspicion
	// news snaps it back briefly, but it re-stretches in between. The
	// old AnySuspected behavior sent exactly one frame per period here.
	if toHealthy > toSuspect-8 {
		t.Errorf("healthy link got %d frames vs %d to the suspect over %d periods — suspicion still pins the whole node",
			toHealthy, toSuspect, window)
	}
}
