package node

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"adaptivecast/internal/bayes"
	"adaptivecast/internal/dataplane"
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
// pin today is the one dialect every node speaks: evidence counts in
// every estimator record, under the oldest header that fits.

// TestQuantizedClusterNegotiates: a default cluster needs no option to
// speak it — nobody mis-decodes anything, and the knowledge plane is
// complete.
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
		if s.HeartbeatsSent == 0 || s.HeartbeatsReceived == 0 {
			t.Errorf("node %d sent %d and received %d heartbeats", i, s.HeartbeatsSent, s.HeartbeatsReceived)
		}
		if s.DecodeErrors != 0 || s.SnapshotMergeErrors != 0 {
			t.Errorf("node %d hit %d decode and %d merge errors", i, s.DecodeErrors, s.SnapshotMergeErrors)
		}
		if got := len(nd.KnownLinks()); got != 2 {
			t.Errorf("node %d knows %d links, want 2", i, got)
		}
	}
}

// wireVersion is the one version byte every frame carries (see
// internal/wire/binary.go).
const wireVersion = 7

// TestQuantizedFullHeartbeats: full-snapshot heartbeats (settleFullTicks,
// every frame the since = 0 fallback) always carry records, and every one
// of them rides the one wire version, from the first period on.
func TestQuantizedFullHeartbeats(t *testing.T) {
	g, err := topology.Line(2)
	if err != nil {
		t.Fatal(err)
	}
	fabric := transport.NewFabric(transport.FabricOptions{})
	defer func() { _ = fabric.Close() }()
	tap := newTap(fabric.Endpoint(0))
	nodes := buildClusterOver(t, g, fabric, Config{}, func(i int, tr transport.Transport) transport.Transport {
		if i == 0 {
			return tap
		}
		return tr
	})
	settleFullTicks(nodes, 50)
	for i, nd := range nodes {
		s := nd.Stats()
		if s.DecodeErrors != 0 {
			t.Errorf("node %d hit %d decode errors", i, s.DecodeErrors)
		}
		if s.DeltaHeartbeatsSent != 0 {
			t.Errorf("node %d cut %d deltas on the full-snapshot reference", i, s.DeltaHeartbeatsSent)
		}
	}
	frames := tap.frames(1)
	if len(frames) != nodes[0].Stats().HeartbeatsSent {
		t.Fatalf("tap saw %d frames, node 0 sent %d heartbeats", len(frames), nodes[0].Stats().HeartbeatsSent)
	}
	for fi, b := range frames {
		f, err := wire.Decode(b)
		if err != nil {
			t.Fatalf("frame %d does not decode: %v", fi, err)
		}
		if b[1] != wireVersion || f.Kind != wire.FrameKnowledgeDelta || f.Delta.Since != 0 || len(f.Delta.Snap.Procs) == 0 {
			t.Errorf("frame %d: version %d kind %d %+v, want a v%d full snapshot with records", fi, b[1], f.Kind, f.Delta, wireVersion)
		}
	}
}

// wireCluster is a deterministic stand-in for a cluster's heartbeat
// plane: one knowledge view per process, every period each view's full
// snapshot put through a seeded loss schedule and merged at each
// neighbor — over the real wire (encoded and decoded) or handed over in
// memory — with no clocks or goroutines, so two runs that differ only in
// the wire see the same snapshots arrive.
type wireCluster struct {
	g       *topology.Graph
	views   []*knowledge.View
	viaWire bool
}

func newWireCluster(t *testing.T, g *topology.Graph, viaWire bool) *wireCluster {
	t.Helper()
	wc := &wireCluster{g: g, viaWire: viaWire}
	for i := 0; i < g.NumNodes(); i++ {
		v, err := knowledge.NewView(topology.NodeID(i), g.NumNodes(), g.Neighbors(topology.NodeID(i)), nil, knowledge.Params{})
		if err != nil {
			t.Fatal(err)
		}
		wc.views = append(wc.views, v)
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
			got := snap
			if wc.viaWire {
				b, err := wire.Encode(&wire.Frame{Kind: wire.FrameHeartbeat, Heartbeat: snap})
				if err != nil {
					t.Fatal(err)
				}
				f, err := wire.Decode(b)
				if err != nil {
					t.Fatal(err)
				}
				got = f.Heartbeat
			}
			if err := wc.views[nb].MergeSnapshot(got); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestQuantizedEstimateParity is the differential test that replaced
// the v4 profile's 0.05/0.08 tolerances: on identical random loss
// schedules, a cluster exchanging its snapshots over the wire and one
// handing them over in memory land on the same posterior means at every
// node for every process and link, and every node plans the identical
// (tree, allocation, Σ m[j]): the wire carries an estimate exactly.
func TestQuantizedEstimateParity(t *testing.T) {
	for _, seed := range []int64{7, 42, 1234} {
		g, err := topology.RandomConnected(8, 2, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		run := func(viaWire bool) *wireCluster {
			wc := newWireCluster(t, g, viaWire)
			rng := rand.New(rand.NewSource(seed))
			for p := 0; p < 150; p++ {
				wc.period(t, rng, 0.25)
			}
			for p := 0; p < 50; p++ {
				wc.period(t, rng, 0.02)
			}
			return wc
		}
		mem, wired := run(false), run(true)
		for i, mv := range mem.views {
			wv := wired.views[i]
			for p := 0; p < g.NumNodes(); p++ {
				mm, dm := mv.CrashEstimate(topology.NodeID(p))
				mw, dw := wv.CrashEstimate(topology.NodeID(p))
				if dm != dw || mm != mw {
					t.Errorf("seed %d: node %d estimates process %d at (%v, dist %d) over the wire, (%v, dist %d) in memory",
						seed, i, p, mw, dw, mm, dm)
				}
			}
			links := mv.KnownLinks()
			if len(wv.KnownLinks()) != len(links) {
				t.Fatalf("seed %d: node %d knows %d links over the wire, %d in memory", seed, i, len(wv.KnownLinks()), len(links))
			}
			for _, l := range links {
				mm, dm, _ := mv.LossEstimate(l)
				mw, dw, ok := wv.LossEstimate(l)
				if !ok || dm != dw || mm != mw {
					t.Errorf("seed %d: node %d estimates link %v at (%v, dist %d) over the wire, (%v, dist %d) in memory",
						seed, i, l, mw, dw, mm, dm)
				}
			}
			pm := freshPlan(mv, topology.NodeID(i), dataplane.DefaultK)
			pw := freshPlan(wv, topology.NodeID(i), dataplane.DefaultK)
			if pm.Err != nil || pw.Err != nil {
				t.Fatalf("seed %d: node %d cannot plan: %v / %v", seed, i, pm.Err, pw.Err)
			}
			if !reflect.DeepEqual(pm.Parents, pw.Parents) || !reflect.DeepEqual(pm.Alloc, pw.Alloc) || pm.Planned != pw.Planned {
				t.Errorf("seed %d: node %d plans (%v, %v, Σ=%d) over the wire, (%v, %v, Σ=%d) in memory",
					seed, i, pw.Parents, pw.Alloc, pw.Planned, pm.Parents, pm.Alloc, pm.Planned)
			}
		}
	}
}

// alarmingHeartbeat settles a Line(2) and returns node 0 with a
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

	snap := &knowledge.Snapshot{From: 1, Seq: 1 << 20, Procs: []knowledge.ProcRecord{
		{ID: 1, Dist: 0, Est: bayes.State{Fail: 500}},
	}}
	hb, err := wire.Encode(&wire.Frame{Kind: wire.FrameHeartbeat, Heartbeat: snap})
	if err != nil {
		t.Fatal(err)
	}
	if hb[1] != wireVersion {
		t.Fatalf("heartbeat encoded at version %d, want %d", hb[1], wireVersion)
	}
	return nodes[0], hb
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

// TestQuantizedMixedCluster: a frame of a retired wire version sent at a
// live node is rejected whole: the heartbeat under a v1–v3 header, and
// under a v4 or v5 header with the caps varint those versions carried.
// Each books exactly one DecodeErrors and merges nothing, and the same
// heartbeat at the current version is then merged, so the version alone
// is what was refused.
func TestQuantizedMixedCluster(t *testing.T) {
	for ver := byte(1); ver <= 5; ver++ {
		nd, hb := alarmingHeartbeat(t)
		retired := append([]byte{hb[0], ver, hb[2]}, hb[3:]...)
		if ver >= 4 {
			retired = append([]byte{hb[0], ver, hb[2], ver}, hb[3:]...)
		}
		rejectedWhole(t, nd, fmt.Sprintf("v%d frame", ver), retired, hb)
	}
}

// TestRefinedGridFrameRejected: a heartbeat whose estimator rides a
// retired float layout — the refined grid (flags 0x00, then the midpoints
// shipped explicitly, then the log-belief vector) or the raw vector
// (flags 0x01, then the log-belief vector) — is rejected whole at a live
// node, as a v4 frame is, even when it describes the uniform grid and the
// very posterior of a count record: one DecodeErrors, nothing merged. The
// same estimate as evidence counts then merges.
func TestRefinedGridFrameRejected(t *testing.T) {
	const u = bayes.Intervals
	nd, hb := alarmingHeartbeat(t)
	est := []byte{0, 0, 0xf4, 0x03} // distortion 0, 0 successes, 500 failures
	at := bytes.Index(hb, est)
	if at < 0 {
		t.Fatal("no count record in the heartbeat")
	}
	// The posterior of 500 failures on the uniform grid, in log space with
	// its maximum at 0, as the float layouts carried it.
	beliefs := binary.AppendUvarint(nil, u)
	for i := 0; i < u; i++ {
		lb := 500 * (math.Log(float64(2*i+1)/(2*u)) - math.Log(float64(2*u-1)/(2*u)))
		beliefs = binary.LittleEndian.AppendUint64(beliefs, math.Float64bits(lb))
	}
	refined := append([]byte{0}, binary.AppendUvarint(nil, u)...)
	for i := 0; i < u; i++ {
		refined = binary.LittleEndian.AppendUint64(refined, math.Float64bits(float64(2*i+1)/float64(2*u)))
	}
	for name, layout := range map[string][]byte{
		"refined-grid frame": append(refined, beliefs...),
		"raw-vector frame":   append(append([]byte{1}, binary.AppendUvarint(nil, u)...), beliefs...),
	} {
		bad := append(append(append([]byte(nil), hb[:at+1]...), layout...), hb[at+len(est):]...)
		rejectedWhole(t, nd, name, bad, hb)
	}
}

// TestQuantizedLegacyFrameDiscipline keeps the name it had when frames
// took the oldest legacy header their fields needed. It audits every
// frame a node in a default cluster sends, from its first period: every
// heartbeat, delta and data frame, with records or without, stretched
// or not, rides the one wire version.
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

	full, empty, data := 0, 0, 0
	for _, to := range g.Neighbors(1) {
		for fi, b := range tap.frames(to) {
			f, err := wire.Decode(b)
			if err != nil {
				t.Fatalf("frame %d to %d does not decode: %v", fi, to, err)
			}
			var snap *knowledge.Snapshot
			switch f.Kind {
			case wire.FrameHeartbeat:
				snap = f.Heartbeat
			case wire.FrameKnowledgeDelta:
				snap = f.Delta.Snap
			case wire.FrameData:
				data++
				if b[1] != wireVersion {
					t.Errorf("data frame %d to %d at version %d", fi, to, b[1])
				}
				continue
			case wire.FrameJoin, wire.FrameLeave:
				t.Fatalf("frame %d to %d: membership frame in a static cluster", fi, to)
			}
			if len(snap.Procs)+len(snap.Links) == 0 {
				empty++
			} else {
				full++
			}
			if b[1] != wireVersion {
				t.Errorf("frame %d to %d (kind %d, %d records) at version %d, want %d",
					fi, to, f.Kind, len(snap.Procs)+len(snap.Links), b[1], wireVersion)
			}
		}
	}
	if full == 0 || empty == 0 || data == 0 {
		t.Fatalf("tap saw %d non-empty, %d empty and %d data frames; the audit needs all three", full, empty, data)
	}
	for i, nd := range nodes {
		if errs := nd.Stats().DecodeErrors; errs != 0 {
			t.Errorf("node %d hit %d decode errors", i, errs)
		}
	}
}
