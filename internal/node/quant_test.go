package node

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// legacyTransport makes the node behind it look, on the wire, like a
// binary that predates capability negotiation: frames above wire v3
// addressed to it are dropped undecoded (an old decoder rejects the
// version byte), and its own frames leave as the raw <= v3 encoding of
// the same content, capability advert stripped. The count layout is the
// node's only compact profile and has no switch, so this is how tests
// get a legacy peer.
type legacyTransport struct {
	transport.Transport
	dropped atomic.Int64 // inbound frames above v3
}

func (lt *legacyTransport) SetHandler(h transport.Handler) {
	lt.Transport.SetHandler(func(from topology.NodeID, frame []byte) {
		if len(frame) > 1 && frame[1] > 3 {
			lt.dropped.Add(1)
			return
		}
		h(from, frame)
	})
}

func (lt *legacyTransport) Send(to topology.NodeID, frame []byte) error {
	f, err := wire.Decode(frame)
	if err != nil {
		return err
	}
	f.Caps = 0
	switch f.Kind {
	case wire.FrameKnowledgeDelta:
		f.Delta.Caps = 0
	case wire.FrameJoin:
		f.Member.Caps = 0
	case wire.FrameHeartbeat, wire.FrameData, wire.FrameLeave:
	}
	legacy, err := wire.Encode(f)
	if err != nil {
		return err
	}
	return lt.Transport.Send(to, legacy)
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
		nd, err := New(c, wrap(i, fabric.Endpoint(topology.NodeID(i))))
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
	}
	return nodes
}

// The tests below keep the names they had when the compact profile was
// the opt-in v4 quantized encoding; the profile they pin today is the
// default v5 evidence-count layout and its negotiation.

// TestQuantizedClusterNegotiates: a default cluster converges onto the
// v5 profile with no option set — every node ships evidence counts,
// nobody mis-decodes anything, and the knowledge plane is complete.
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
			t.Errorf("node %d never sent a count heartbeat in an all-v5 cluster", i)
		}
		if s.DecodeErrors != 0 {
			t.Errorf("node %d hit %d decode errors on v5 traffic", i, s.DecodeErrors)
		}
		if got := len(nd.KnownLinks()); got != 2 {
			t.Errorf("node %d knows %d links, want 2", i, got)
		}
	}
	// Negotiation converges fast: after the settle, essentially all of a
	// node's heartbeats that carry records ride the count layout.
	s := nodes[1].Stats()
	if s.CountHeartbeatsSent*2 < s.HeartbeatsSent {
		t.Errorf("middle node sent %d count heartbeats of %d — negotiation never converged",
			s.CountHeartbeatsSent, s.HeartbeatsSent)
	}
}

// TestQuantizedFullHeartbeats: negotiation also rides classic
// full-snapshot heartbeats (DisableDeltaHeartbeats), where the win is
// largest — after the first exchange, essentially every frame both ways
// ships counts.
func TestQuantizedFullHeartbeats(t *testing.T) {
	g, err := topology.Line(2)
	if err != nil {
		t.Fatal(err)
	}
	fabric := transport.NewFabric(transport.FabricOptions{})
	defer func() { _ = fabric.Close() }()
	nodes := buildCluster(t, g, fabric, func(i int) Config {
		return Config{DisableDeltaHeartbeats: true}
	})
	settleTicks(nodes, 50)
	for i, nd := range nodes {
		s := nd.Stats()
		if s.DecodeErrors != 0 {
			t.Errorf("node %d hit %d decode errors", i, s.DecodeErrors)
		}
		if s.CountHeartbeatsSent < s.HeartbeatsSent-2 {
			t.Errorf("node %d sent %d count heartbeats of %d full heartbeats — negotiation never converged",
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

// TestQuantizedMixedCluster checks one-sided deployment on a live
// cluster: v5 nodes and legacy (<= v3) peers interoperate — v5 pairs
// ship counts between themselves, nothing above v3 reaches a legacy peer
// except the paced hellos it drops, and nobody's knowledge plane or
// decoding suffers.
func TestQuantizedMixedCluster(t *testing.T) {
	g, err := topology.Ring(6)
	if err != nil {
		t.Fatal(err)
	}
	fabric := transport.NewFabric(transport.FabricOptions{})
	defer func() { _ = fabric.Close() }()
	legacy := make([]*legacyTransport, 6)
	nodes := buildClusterOver(t, g, fabric, Config{}, func(i int, tr transport.Transport) transport.Transport {
		if i < 3 { // nodes 0-1-2: two adjacent v5 pairs on the ring
			return tr
		}
		legacy[i] = &legacyTransport{Transport: tr}
		return legacy[i]
	})
	const periods = 320
	settleTicks(nodes, periods)
	for i, nd := range nodes {
		s := nd.Stats()
		if s.DecodeErrors != 0 {
			t.Errorf("node %d hit %d decode errors on mixed traffic", i, s.DecodeErrors)
		}
		if got := len(nd.KnownLinks()); got != 6 {
			t.Errorf("node %d knows %d links in the mixed cluster, want 6", i, got)
		}
		if i < 3 && s.CountHeartbeatsSent == 0 {
			t.Errorf("v5 node %d never sent a count heartbeat despite a v5 neighbor", i)
		}
		// A legacy peer sees nothing above v3 but hellos: two neighbors,
		// about 9 geometrically paced hellos each over the run.
		if lt := legacy[i]; lt != nil && lt.dropped.Load() > 2*12 {
			t.Errorf("legacy node %d was sent %d frames above v3 over %d periods", i, lt.dropped.Load(), periods)
		}
		// Nearly lossless links (a dropped hello is the only loss): the
		// layout switch must not perturb accounting.
		for _, l := range nd.KnownLinks() {
			if mean, dist, ok := nd.LossEstimate(l); ok && dist == 0 && mean > 0.25 {
				t.Errorf("node %d estimates loss %.3f on lossless %v under mixed layouts", i, mean, l)
			}
		}
	}
	// The v5 node between two v5 neighbors speaks counts on essentially
	// every heartbeat that carries records.
	if s := nodes[1].Stats(); s.CountHeartbeatsSent*4 < s.HeartbeatsSent {
		t.Errorf("node 1 sent %d count heartbeats of %d between v5 neighbors", s.CountHeartbeatsSent, s.HeartbeatsSent)
	}
}

// TestQuantizedLegacyFrameDiscipline audits the actual bytes a node
// sends toward a peer that never advertises the capability: everything
// is byte-identical to the v3-era encoding of its content — version
// <= 3, raw estimator layouts, no advert — except the geometrically
// backed-off hello frames, whose count over N periods is
// O(log N + N/256).
func TestQuantizedLegacyFrameDiscipline(t *testing.T) {
	g, err := topology.Line(2)
	if err != nil {
		t.Fatal(err)
	}
	fabric := transport.NewFabric(transport.FabricOptions{})
	defer func() { _ = fabric.Close() }()

	tap := newTap(fabric.Endpoint(0))
	legacy := &legacyTransport{Transport: fabric.Endpoint(1)} // node 1 never advertises
	nodes := buildClusterOver(t, g, fabric, Config{}, func(i int, _ transport.Transport) transport.Transport {
		if i == 0 {
			return tap
		}
		return legacy
	})

	const periods = 600
	settleTicks(nodes, periods)

	hellos := 0
	for fi, b := range tap.frames(1) {
		if len(b) < 3 {
			t.Fatalf("frame %d: short frame (%d bytes)", fi, len(b))
		}
		f, err := wire.Decode(b)
		if err != nil {
			t.Fatalf("frame %d: does not decode: %v", fi, err)
		}
		if b[1] <= 3 {
			// Decode admits count records only inside v5 frames, so a
			// frame that decodes at <= v3 and re-encodes to itself is the
			// v3-era encoding, float for float.
			again, err := wire.Encode(f)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, b) {
				t.Fatalf("frame %d toward the legacy peer is not the canonical v%d encoding of its content", fi, b[1])
			}
			continue
		}
		hellos++
		if f.Kind != wire.FrameKnowledgeDelta || f.Delta.Caps != wire.CapsCounts {
			t.Fatalf("frame %d: v%d frame toward a legacy peer without a capability advert", fi, b[1])
		}
	}
	if hellos == 0 {
		t.Error("node never sent a capability hello toward the silent peer")
	}
	// Hello pacing over 600 periods: first frame, then gaps 4, 8, ...,
	// 256, 256 — about 9 frames. Anything near the period count means the
	// backoff is broken and legacy peers pay a permanent v5 tax.
	if hellos > 12 {
		t.Errorf("node sent %d hellos over %d periods, want <= 12 (geometric backoff)", hellos, periods)
	}
	if got := nodes[0].Stats().CountHeartbeatsSent; got != hellos {
		t.Errorf("CountHeartbeatsSent = %d but %d v5 frames crossed the tap", got, hellos)
	}
	if got := int(legacy.dropped.Load()); got != hellos {
		t.Errorf("legacy peer dropped %d frames above v3, tap saw %d hellos", got, hellos)
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
		nd, err := New(Config{
			ID:                 topology.NodeID(i),
			NumProcs:           3,
			Neighbors:          g.Neighbors(topology.NodeID(i)),
			AdaptiveCadenceMax: 4,
		}, tr)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
	}
	settleTicks(nodes, 400)

	// tick01 paces the two survivors one period and lets the async send
	// path (lane scheduler, fabric goroutines) drain, like settleTicks.
	tick01 := func() {
		nodes[0].Tick()
		nodes[1].Tick()
		time.Sleep(2 * time.Millisecond)
	}

	// Crash node 2 and tick until node 1 suspects it.
	nodes[2].Stop()
	suspected := func() bool {
		tick01()
		nodes[1].viewMu.Lock()
		defer nodes[1].viewMu.Unlock()
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
	time.Sleep(20 * time.Millisecond)
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
