package node

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"adaptivecast/internal/bayes"
	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/topology"
	"adaptivecast/internal/transport"
	"adaptivecast/internal/wire"
)

// settleTicks runs `periods` heartbeat rounds on every node, draining
// the fabric between rounds: frames leaking from one period into the
// next move the ack chain and the suspicion timers a period off, so a
// fixed sleep makes every timing-sensitive assertion flaky under -race
// on a loaded machine. A round is settled
// exactly when every heartbeat it sent has been handled — the lossless
// case, decided by counting. Under loss (or toward a stopped node) some
// never arrive, and the round falls back to waiting until the receive
// counters have stayed put for a few polls.
func settleTicks(nodes []*Node, periods int) { settle(nodes, periods, false) }

// settleFullTicks is settleTicks on the full-snapshot reference: every
// round starts from forgetAcks, so every heartbeat is a whole view.
func settleFullTicks(nodes []*Node, periods int) { settle(nodes, periods, true) }

// forgetAcks makes the nodes' next Ticks full-snapshot heartbeats, the
// reference the delta path is measured against: with no ack on record
// toward any neighbor, every frame Tick cuts is the since = 0 fallback
// carrying the whole view. The versions seen go with the acks so the
// frames of the coming round ack nothing either — a neighbor that
// handles one before its own Tick would otherwise cut a delta against
// it. Call it while no frame is in flight.
func forgetAcks(nodes []*Node) {
	for _, nd := range nodes {
		nd.mu.Lock()
		nd.hb.Reset()
		nd.mu.Unlock()
	}
}

func settle(nodes []*Node, periods int, full bool) {
	// counts returns the heartbeats sent, the heartbeats handled (merged,
	// or rejected with a counted reason), and every receive-side counter.
	counts := func() (sent, handled, received int) {
		for _, nd := range nodes {
			s := nd.Stats()
			sent += s.HeartbeatsSent
			handled += s.HeartbeatsReceived + s.SnapshotMergeErrors + s.DecodeErrors + s.StaleEpochFrames
			received += s.DataReceived + s.EpochChanges
		}
		return sent, handled, handled + received
	}
	for p := 0; p < periods; p++ {
		if full {
			forgetAcks(nodes)
		}
		sent0, handled0, _ := counts()
		start := time.Now()
		for _, nd := range nodes {
			nd.Tick()
		}
		for _, nd := range nodes {
			nd.WaitSendIdle(time.Second) // the period's frames are on the fabric
		}
		// Poll at the pace the machine just ticked at: the handlers still
		// to run do comparable work, so on a slow run (the race detector,
		// a loaded host) a quiet poll still means quiet.
		pause := max(500*time.Microsecond, time.Since(start))
		last, quiet := -1, 0
		for attempt := 0; attempt < 50 && quiet < 3; attempt++ {
			sent, handled, received := counts()
			if handled-handled0 >= sent-sent0 {
				break
			}
			if received == last {
				quiet++
			} else {
				last, quiet = received, 0
			}
			time.Sleep(pause)
		}
	}
}

// TestDeltaHeartbeatSteadyStateBandwidth is the delta acceptance test:
// once estimates converge, delta heartbeats must spend at least 3x fewer
// bytes per period than full-snapshot heartbeats (settleFullTicks, every
// frame the since = 0 fallback). The floor was set when a record was
// ~806 bytes and survives the ~7.5-byte count record on arithmetic, not
// luck: on this ring a full snapshot is a ~15-byte delta header plus 12
// records, ~105 B; a converged delta is the same header plus the ~1.2
// records per frame whose mean still drifts past DeltaEpsilon, ~24 B —
// 4.4x. The floor trips once deltas re-ship more than ~2.6 records per
// frame.
func TestDeltaHeartbeatSteadyStateBandwidth(t *testing.T) {
	run := func(rounds func([]*Node, int)) (steadyBytes int) {
		g, err := topology.Ring(6)
		if err != nil {
			t.Fatal(err)
		}
		fabric := transport.NewFabric(transport.FabricOptions{})
		defer func() { _ = fabric.Close() }()
		nodes := buildCluster(t, g, fabric, nil)
		// Long enough for every estimate's mean to settle well below the
		// delta epsilon (posterior drift shrinks like 1/periods²).
		rounds(nodes, 300)
		before := nodes[0].Stats().HeartbeatBytesSent
		rounds(nodes, 40)
		return nodes[0].Stats().HeartbeatBytesSent - before
	}

	deltaBytes := run(settleTicks)
	fullBytes := run(settleFullTicks)
	if deltaBytes <= 0 || fullBytes <= 0 {
		t.Fatalf("no heartbeat bytes measured: delta=%d full=%d", deltaBytes, fullBytes)
	}
	if 3*deltaBytes > fullBytes {
		t.Errorf("steady-state delta heartbeats spent %dB vs full %dB — want >= 3x saving (got %.1fx)",
			deltaBytes, fullBytes, float64(fullBytes)/float64(deltaBytes))
	}
	t.Logf("steady-state heartbeat bytes over 40 periods: delta=%dB full=%dB (%.0fx smaller)",
		deltaBytes, fullBytes, float64(fullBytes)/float64(deltaBytes))
}

// TestDeltaHeartbeatsStillDetectLoss holds the liveness property deltas
// must not break: near-empty delta frames still carry the heartbeat
// sequence, so the sequence-gap loss accounting keeps converging to the
// true link loss.
func TestDeltaHeartbeatsStillDetectLoss(t *testing.T) {
	const trueLoss = 0.25
	g, err := topology.Line(2)
	if err != nil {
		t.Fatal(err)
	}
	fabric := transport.NewFabric(transport.FabricOptions{Seed: 5})
	defer func() { _ = fabric.Close() }()
	if err := fabric.SetLoss(0, 1, trueLoss); err != nil {
		t.Fatal(err)
	}
	nodes := buildCluster(t, g, fabric, nil)
	settleTicks(nodes, 1200)
	link := topology.NewLink(0, 1)
	for i, nd := range nodes {
		got, _, ok := nd.LossEstimate(link)
		if !ok {
			t.Fatalf("node %d never learned the link", i)
		}
		if math.Abs(got-trueLoss) > 0.07 {
			t.Errorf("node %d loss estimate = %v under delta heartbeats, want ≈%v", i, got, trueLoss)
		}
	}
}

// TestDeltaFullFallbackAfterRestart is the stale-ack scenario: a node
// that lost its state (restart) keeps echoing an empty ack, its neighbor
// falls back to full snapshots, and the restarted node re-learns the
// whole topology — records that converged long ago and would never ride
// a delta again.
func TestDeltaFullFallbackAfterRestart(t *testing.T) {
	g, err := topology.Ring(5)
	if err != nil {
		t.Fatal(err)
	}
	fabric := transport.NewFabric(transport.FabricOptions{})
	defer func() { _ = fabric.Close() }()
	nodes := buildCluster(t, g, fabric, nil)
	settleTicks(nodes, 250) // converge: steady-state deltas are now empty
	for i, nd := range nodes {
		if got := len(nd.KnownLinks()); got != 5 {
			t.Fatalf("node %d knows %d links before restart, want 5", i, got)
		}
	}

	// "Restart" node 3: a fresh incarnation on the same endpoint, with no
	// peer bookkeeping and an empty view.
	stopNode(nodes[3])
	replacement := newTestNode(t, Config{
		ID: 3, NumProcs: 5, Neighbors: g.Neighbors(3),
	}, fabric.Endpoint(3))
	nodes[3] = replacement
	settleTicks(nodes, 6)

	// The only way the restarted node can re-learn the far side of the
	// ring is a full-snapshot fallback: its neighbors' deltas no longer
	// carry those long-converged records.
	if got := len(replacement.KnownLinks()); got != 5 {
		t.Errorf("restarted node re-learned %d links, want 5 (full-snapshot fallback broken?)", got)
	}
	if hb := replacement.Stats().HeartbeatsReceived; hb == 0 {
		t.Error("restarted node received no heartbeats")
	}
}

// TestSiblingHorizonUnmasksRestartedNeighbor: the full-snapshot fallback
// toward a neighbor clears that neighbor's bit from every record mask. On
// a ring of six, nodes 2 and 3 both hold the far link 5–0 at distortion
// 2, so each leaves it out of its deltas toward the other (sibling
// horizon). Node 3 restarts; its first frame acks nothing, so node 2's
// next Tick sends it the full snapshot, and from then on node 2's deltas
// toward it must carry 5–0 again: the restarted node holds our copy one
// step above ours and, with us as its supplier, never sends it back to
// clear the bit. Frames are carried by hand, so the run is one schedule.
func TestSiblingHorizonUnmasksRestartedNeighbor(t *testing.T) {
	const n, a, b, ageTimeout = 6, 2, 3, 8
	far := topology.NewLink(5, 0)
	g, err := topology.Ring(n)
	if err != nil {
		t.Fatal(err)
	}
	cfg := func(id topology.NodeID) Config {
		return Config{ID: id, NumProcs: n, Neighbors: g.Neighbors(id),
			Knowledge: knowledge.Params{DeltaEpsilon: -1, LinkAgeTimeout: ageTimeout}} // every observation re-stamps
	}
	nodes, boxes := make([]*Node, n), make([]*mailTransport, n)
	for i := range nodes {
		id := topology.NodeID(i)
		boxes[i] = &mailTransport{sinkTransport: sinkTransport{id: id}}
		nodes[i] = newTestNode(t, cfg(id), boxes[i])
	}
	// send ticks the given nodes and returns their frames.
	send := func(ids ...int) []mail {
		var out []mail
		for _, i := range ids {
			nodes[i].Tick()
			if !nodes[i].WaitSendIdle(5 * time.Second) {
				t.Fatalf("node %d's lanes never flushed", i)
			}
			out = append(out, boxes[i].take()...)
		}
		return out
	}
	// shipsFar reports whether node a's delta toward b, cut against its
	// first version, carries the far link: every record but those left
	// out toward b was stamped since. It fails the test unless node a
	// holds the link at distortion 2.
	shipsFar := func() bool {
		nd := nodes[a]
		nd.mu.Lock()
		defer nd.mu.Unlock()
		if _, d, _ := nd.view.LossEstimate(far); d != 2 {
			t.Fatalf("node %d holds %v at distortion %d, want 2", a, far, d)
		}
		d, ok := nd.view.DeltaTo(1, b)
		if !ok {
			t.Fatal("version 1 does not anchor a delta")
		}
		for _, lr := range d.Links {
			if lr.Link == far {
				return true
			}
		}
		return false
	}
	// expiresNext reports whether node a's next period clears the far
	// link's mask anyway (the expiry, see knowledge.View.BeginPeriod).
	expiresNext := func() bool {
		nd := nodes[a]
		nd.mu.Lock()
		defer nd.mu.Unlock()
		return (nd.view.SelfSeq()+1+uint64(far.A+far.B))%ageTimeout == 0
	}
	all := []int{0, 1, 2, 3, 4, 5}
	p := 0
	for ; p < 10 || p < 100 && (shipsFar() || expiresNext()); p++ {
		for _, m := range send(all...) {
			nodes[m.to].handle(m.from, m.frame)
		}
	}
	if shipsFar() {
		t.Fatalf("after %d periods node %d's deltas toward %d still carry %v: the setup never masked it", p, a, b, far)
	}

	stopNode(nodes[b])
	boxes[b] = &mailTransport{sinkTransport: sinkTransport{id: b}}
	nodes[b] = newTestNode(t, cfg(b), boxes[b])
	for _, m := range send(b) {
		if m.to == a {
			nodes[a].handle(m.from, m.frame)
		}
	}
	full := false
	for _, m := range send(a) {
		if f, err := wire.Decode(m.frame); err == nil && m.to == b {
			full = f.Kind == wire.FrameKnowledgeDelta && f.Delta.Since == 0
		}
	}
	if !full {
		t.Fatalf("node %d did not fall back to the full snapshot toward the restarted %d", a, b)
	}
	if !shipsFar() {
		t.Errorf("after the full snapshot toward the restarted %d, node %d's deltas toward it still leave out %v", b, a, far)
	}
}

// TestDeltaConvergesToFullBaseline is the property-style schedule test:
// random lossy schedules, one cluster on delta heartbeats and one on
// always-full snapshots (settleFullTicks), must end with the same view of
// the system (up to the documented DeltaEpsilon-scale tolerance) once the
// links calm down and the ack chain repairs.
func TestDeltaConvergesToFullBaseline(t *testing.T) {
	for _, seed := range []int64{3, 17, 99} {
		run := func(rounds func([]*Node, int)) []*Node {
			rng := rand.New(rand.NewSource(seed))
			g, err := topology.RandomConnected(5, 2, rng)
			if err != nil {
				t.Fatal(err)
			}
			fabric := transport.NewFabric(transport.FabricOptions{Seed: seed})
			t.Cleanup(func() { _ = fabric.Close() })
			nodes := buildCluster(t, g, fabric, nil)
			// Lossy phase: both clusters sample the identical loss schedule
			// (same seed, same send order), dropping full and
			// delta heartbeats alike.
			for li := 0; li < g.NumLinks(); li++ {
				l := g.Link(li)
				if err := fabric.SetLoss(l.A, l.B, 0.3); err != nil {
					t.Fatal(err)
				}
			}
			rounds(nodes, 150)
			// Calm phase: no loss; acks repair and estimates settle.
			for li := 0; li < g.NumLinks(); li++ {
				l := g.Link(li)
				if err := fabric.SetLoss(l.A, l.B, 0); err != nil {
					t.Fatal(err)
				}
			}
			rounds(nodes, 100)
			return nodes
		}

		deltaNodes := run(settleTicks)
		fullNodes := run(settleFullTicks)
		for i := range deltaNodes {
			for p := 0; p < 5; p++ {
				mD, dD := deltaNodes[i].CrashEstimate(topology.NodeID(p))
				mF, dF := fullNodes[i].CrashEstimate(topology.NodeID(p))
				if (dD == math.MaxInt32) != (dF == math.MaxInt32) {
					t.Fatalf("seed %d: node %d knows of process %d in one mode only", seed, i, p)
				}
				if math.Abs(mD-mF) > 0.05 {
					t.Errorf("seed %d: node %d estimate of process %d diverged: delta=%v full=%v",
						seed, i, p, mD, mF)
				}
			}
			if dl, fl := len(deltaNodes[i].KnownLinks()), len(fullNodes[i].KnownLinks()); dl != fl {
				t.Errorf("seed %d: node %d knows %d links on deltas vs %d on full", seed, i, dl, fl)
			}
		}
	}
}

// TestSnapshotMergeErrorsSurfaced pins the satellite fix: a frame that
// decodes fine but whose knowledge snapshot the view rejects must be
// counted in its own stat, not silently conflated with decode errors.
func TestSnapshotMergeErrorsSurfaced(t *testing.T) {
	g, err := topology.Line(2)
	if err != nil {
		t.Fatal(err)
	}
	fabric := transport.NewFabric(transport.FabricOptions{})
	defer func() { _ = fabric.Close() }()
	nodes := buildCluster(t, g, fabric, nil)

	// A well-formed frame naming a process outside the receiver's Π.
	evil := mustEncodeHeartbeat(t, 1, 3, 7)
	if err := fabric.Endpoint(1).Send(0, evil); err != nil {
		t.Fatal(err)
	}
	waitStat(t, func() bool { return nodes[0].Stats().SnapshotMergeErrors == 1 },
		"malformed snapshot not surfaced in SnapshotMergeErrors")
	if nodes[0].Stats().DecodeErrors != 0 {
		t.Errorf("DecodeErrors = %d, want 0 (the frame decoded fine)", nodes[0].Stats().DecodeErrors)
	}
}

// TestHeartbeatMustNameItsSender: a heartbeat or delta whose snapshot
// names another sender than the transport delivered it from is refused
// before any merge or bookkeeping and counted in SnapshotMergeErrors.
// Merging it would book its link evidence on (self, Snap.From) — learning
// a link that does not exist — and key the ack maps by a transport ID
// nothing checked. The same frame from its named sender still merges.
func TestHeartbeatMustNameItsSender(t *testing.T) {
	nd := newTestNode(t, Config{ID: 0, NumProcs: 4, Neighbors: []topology.NodeID{1}}, &sinkTransport{id: 0})
	counts := bayes.State{Succ: 40}
	snap := func(from topology.NodeID) *knowledge.Snapshot {
		return &knowledge.Snapshot{From: from, Seq: 5, Procs: []knowledge.ProcRecord{{ID: 3, Dist: 1, Est: counts}}}
	}
	delta := func(from topology.NodeID) []byte {
		b, err := wire.Encode(&wire.Frame{Kind: wire.FrameKnowledgeDelta,
			Delta: &wire.KnowledgeDelta{Snap: snap(from), Ver: 7, Ack: 2}})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	full, err := wire.Encode(&wire.Frame{Kind: wire.FrameHeartbeat, Heartbeat: snap(2)})
	if err != nil {
		t.Fatal(err)
	}
	peerKeys := func() int {
		nd.mu.Lock()
		defer nd.mu.Unlock()
		return nd.hb.Peers()
	}

	// Transport sender 1 claims to be 2, in a delta and in a full heartbeat.
	nd.handle(1, delta(2))
	nd.handle(1, full)
	// Transport senders nobody knows claim to be the neighbor.
	for from := topology.NodeID(1000); from < 1005; from++ {
		nd.handle(from, delta(1))
	}
	s := nd.Stats()
	if s.SnapshotMergeErrors != 7 || s.HeartbeatsReceived != 0 {
		t.Errorf("7 frames naming another sender: %d merge errors, %d heartbeats merged; want 7 and 0",
			s.SnapshotMergeErrors, s.HeartbeatsReceived)
	}
	if links := nd.KnownLinks(); len(links) != 1 {
		t.Errorf("the node knows links %v, want only its own link to 1", links)
	}
	if _, dist := nd.CrashEstimate(3); dist != math.MaxInt32 {
		t.Errorf("process 3 is known at distortion %d from a refused frame", dist)
	}
	if got := peerKeys(); got != 0 {
		t.Errorf("refused frames left %d ack-map entries", got)
	}

	// The honest frame merges and is acked.
	nd.handle(1, delta(1))
	if s := nd.Stats(); s.HeartbeatsReceived != 1 || s.SnapshotMergeErrors != 7 {
		t.Errorf("the honest delta: %d heartbeats merged, %d merge errors; want 1 and 7", s.HeartbeatsReceived, s.SnapshotMergeErrors)
	}
	if _, dist := nd.CrashEstimate(3); dist != 2 {
		t.Errorf("process 3 at distortion %d after the honest delta, want 2", dist)
	}
	nd.mu.Lock()
	seen, acked := nd.hb.Seen(1), nd.hb.Acked(1)
	nd.mu.Unlock()
	if seen != 7 || acked != 2 || peerKeys() != 2 {
		t.Errorf("after the honest delta seen=%d acked=%d over %d entries, want 7, 2 over 2", seen, acked, peerKeys())
	}
}

func waitStat(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal(msg)
}

// mustEncodeHeartbeat builds a well-formed heartbeat frame from `from`
// whose snapshot names process `badID` — wire-valid, knowledge-invalid.
func mustEncodeHeartbeat(t *testing.T, from topology.NodeID, seq uint64, badID topology.NodeID) []byte {
	t.Helper()
	frame, err := wire.Encode(&wire.Frame{Kind: wire.FrameHeartbeat, Heartbeat: &knowledge.Snapshot{
		From: from,
		Seq:  seq,
		Procs: []knowledge.ProcRecord{
			{ID: badID, Dist: 1, Est: bayes.New().State()},
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestSplitHorizonOnLossyRing is the steady state the lossless test
// above never reaches: on a ring whose frames are lost at 10 %, every
// incident link absorbs a success or a loss per frame, and its posterior
// moves past DeltaEpsilon each period for the whole run, so deltas never
// go empty. The nodes run over mailboxes and the test hands each frame
// over itself, in a fixed order, dropping a seeded tenth of them. It
// keeps its own record of who supplied each record to each node — the
// sender of the frame whose copy the node adopted, by Algorithm 3's rule
// that a copy is adopted only at strictly lower distortion — and checks
// every delta against it: no delta toward T carries a record T supplied
// or the link to T. It then compares the delta bytes with the
// receiver-agnostic cut of the same view at the same moment.
//
// The process and link records a delta leaves out beyond that (sibling
// horizon, a neighbour's mask bit) meet an oracle that reads no mask:
// when the frame arrives, its receiver must hold each of them at no
// greater distortion than the sender cut it at, so Algorithm 3 rejects
// the copy it was not sent. The one exception allowed is a receiver
// whose copy aged after it last sent that record to the sender, fewer
// than LinkAgeTimeout periods ago: the mask expiry clears the bit within
// that time.
//
// The floor is arithmetic. On a ring of six a node knows six links: its
// two incident links and two remote links learned through each
// neighbor, at distortions one and two. All six re-ship every period
// (incident links move, and each neighbor re-ships its own incident
// links, which the node re-adopts at the same distortion), so a
// receiver-agnostic delta carries six link records and a split-horizon
// one three — the link to T and the two T supplied are left out. A link
// record is ~10 bytes and a frame ~15 bytes of header, so link records
// alone make split-horizon deltas ≤ (15+3·10)/(15+6·10) = 0.6 of the
// agnostic bytes; process records, which converge and leave the deltas,
// only narrow the gap. The floor is 0.75.
func TestSplitHorizonOnLossyRing(t *testing.T) {
	const n, periods, steady, lossRate, ageTimeout = 6, 200, 100, 0.1, 8
	g, err := topology.Ring(n)
	if err != nil {
		t.Fatal(err)
	}
	nodes, boxes := make([]*Node, n), make([]*mailTransport, n)
	for i := range nodes {
		id := topology.NodeID(i)
		boxes[i] = &mailTransport{sinkTransport: sinkTransport{id: id}}
		nodes[i] = newTestNode(t, Config{ID: id, NumProcs: n, Neighbors: g.Neighbors(id),
			Knowledge: knowledge.Params{LinkAgeTimeout: ageTimeout}}, boxes[i])
	}
	type record struct {
		proc topology.NodeID // -1 for a link record
		link topology.Link
	}
	records := func(s *knowledge.Snapshot) []record {
		var out []record
		for _, pr := range s.Procs {
			out = append(out, record{proc: pr.ID})
		}
		for _, lr := range s.Links {
			out = append(out, record{proc: -1, link: lr.Link})
		}
		return out
	}
	dists := func(s *knowledge.Snapshot) []int {
		var out []int
		for _, pr := range s.Procs {
			out = append(out, pr.Dist)
		}
		for _, lr := range s.Links {
			out = append(out, lr.Dist)
		}
		return out
	}
	// distAt is the distortion at which nd holds r, math.MaxInt32 when
	// it does not know it.
	distAt := func(nd *Node, r record) int {
		nd.mu.Lock()
		defer nd.mu.Unlock()
		if r.proc >= 0 {
			_, d := nd.view.CrashEstimate(r.proc)
			return d
		}
		if _, d, ok := nd.view.LossEstimate(r.link); ok {
			return d
		}
		return math.MaxInt32
	}
	// recordDists reads the distortion at which nd holds each process
	// and link it knows.
	recordDists := func(nd *Node) map[record]int {
		nd.mu.Lock()
		defer nd.mu.Unlock()
		out := map[record]int{}
		for id := range topology.NodeID(n) {
			if _, d := nd.view.CrashEstimate(id); d != knowledge.DistInf {
				out[record{proc: id}] = d
			}
		}
		for _, l := range nd.view.KnownLinks() {
			_, out[record{proc: -1, link: l}], _ = nd.view.LossEstimate(l)
		}
		return out
	}
	type toward struct{ from, to topology.NodeID }
	// A sibling is a record a mask bit kept out of a frame: what the
	// sender's receiver-agnostic cut held of it.
	type sibling struct {
		r    record
		dist int
	}
	supplier := make([]map[record]topology.NodeID, n)
	aged := make([]map[record]int, n)       // aged[i][r]: the last period node i's copy of r aged
	reported := map[toward]map[record]int{} // reported[{i, j}][r]: the last period a frame i→j carrying r arrived
	for i := range supplier {
		supplier[i], aged[i] = map[record]topology.NodeID{}, map[record]int{}
	}
	rng := rand.New(rand.NewSource(36))
	splitBytes, agnosticBytes, deltas, left := 0, 0, 0, 0
	var masked, rejected, explained [2]int // by kind: process records, then link records
	for p := 1; p <= periods; p++ {
		for i, nd := range nodes {
			before := recordDists(nd)
			nd.Tick()
			for r, d := range recordDists(nd) {
				if d > before[r] {
					aged[i][r] = p
				}
			}
		}
		for _, nd := range nodes {
			if !nd.WaitSendIdle(5 * time.Second) {
				t.Fatalf("period %d: node %d's lanes never flushed", p, nd.ID())
			}
		}
		var mail []mail
		for _, box := range boxes {
			mail = append(mail, box.take()...)
		}
		// siblings[i] lists the records the frame mail[i] leaves out of its
		// sender's receiver-agnostic cut beyond split horizon: the ones a
		// mask bit kept out.
		siblings := make([][]sibling, len(mail))
		// Every view still stands where its Tick cut it: check each frame
		// and price the receiver-agnostic cut before anything is handled.
		for mi, m := range mail {
			f, err := wire.Decode(m.frame)
			if err != nil || f.Kind != wire.FrameKnowledgeDelta {
				t.Fatalf("period %d: %d→%d sent %v (%v), want a delta", p, m.from, m.to, f, err)
			}
			d := f.Delta
			if d.Since == 0 {
				continue // the full-snapshot fallback carries everything
			}
			for _, r := range records(d.Snap) {
				if r.proc < 0 && r.link == topology.NewLink(m.from, m.to) {
					t.Fatalf("period %d: the delta %d→%d carries the link between them", p, m.from, m.to)
				}
				if sup, ok := supplier[m.from][r]; ok && sup == m.to {
					t.Fatalf("period %d: the delta %d→%d carries %+v, which %d supplied", p, m.from, m.to, r, m.to)
				}
			}
			sender := nodes[m.from]
			sender.mu.Lock()
			cut, ok := sender.view.DeltaSince(d.Since)
			sender.mu.Unlock()
			if !ok || cut.Seq != d.Snap.Seq {
				t.Fatalf("period %d: the agnostic cut of %d since %d is not the frame's (anchored %v)", p, m.from, d.Since, ok)
			}
			left += len(cut.Procs) + len(cut.Links) - len(d.Snap.Procs) - len(d.Snap.Links)
			sent := map[record]bool{}
			for _, r := range records(d.Snap) {
				sent[r] = true
			}
			cutDists := dists(cut)
			for i, r := range records(cut) {
				if !sent[r] && r.link != topology.NewLink(m.from, m.to) && supplier[m.from][r] != m.to {
					siblings[mi] = append(siblings[mi], sibling{r, cutDists[i]})
				}
			}
			if p <= steady {
				continue
			}
			sec, err := wire.AppendSnapshotSection(nil, cut)
			if err != nil {
				t.Fatal(err)
			}
			frame, err := wire.AppendDeltaFrame(nil, d, sec)
			if err != nil {
				t.Fatal(err)
			}
			splitBytes += len(m.frame)
			agnosticBytes += len(frame)
			deltas++
		}
		for mi, m := range mail {
			if rng.Float64() < lossRate {
				continue
			}
			// The oracle: each record a mask bit kept out of this frame
			// is one its receiver would have rejected now, by Algorithm
			// 3's strict rule — unless the receiver's copy aged after
			// the receiver last sent the record to this sender and the
			// mask expiry has not come round yet, less than
			// LinkAgeTimeout periods ago.
			for _, sb := range siblings[mi] {
				kind := 0
				if sb.r.proc < 0 {
					kind = 1
				}
				masked[kind]++
				if sb.dist >= distAt(nodes[m.to], sb.r) {
					rejected[kind]++
					continue
				}
				if at, last := aged[m.to][sb.r], reported[toward{m.to, m.from}][sb.r]; at <= last || p-at >= ageTimeout {
					t.Errorf("period %d: the delta %d→%d left out %+v at distortion %d, which %d holds at %d and would adopt (copy aged at period %d, last sent to %d at period %d)",
						p, m.from, m.to, sb.r, sb.dist, m.to, distAt(nodes[m.to], sb.r), at, m.from, last)
					continue
				}
				explained[kind]++
			}
			f, _ := wire.Decode(m.frame)
			recs, ds := records(f.Delta.Snap), dists(f.Delta.Snap)
			adopted := make([]bool, len(recs))
			for i, r := range recs {
				adopted[i] = ds[i] < distAt(nodes[m.to], r)
			}
			nodes[m.to].handle(m.from, m.frame)
			rep := reported[toward{m.from, m.to}]
			if rep == nil {
				rep = map[record]int{}
				reported[toward{m.from, m.to}] = rep
			}
			for i, r := range recs {
				if adopted[i] {
					supplier[m.to][r] = m.from
				}
				rep[r] = p
			}
		}
	}
	for kind, name := range []string{"process", "link"} {
		if masked[kind] == 0 {
			t.Errorf("no mask bit ever kept a %s record out: the oracle checked nothing", name)
		}
		t.Logf("sibling horizon kept %d %s records out of delivered frames: %d rejected by their receiver, %d adopted after the receiver's copy aged",
			masked[kind], name, rejected[kind], explained[kind])
	}
	if deltas == 0 || left == 0 {
		t.Fatalf("%d steady deltas, %d records left out over the run: split horizon never acted", deltas, left)
	}
	ratio := float64(splitBytes) / float64(agnosticBytes)
	if ratio > 0.75 {
		t.Errorf("over periods %d–%d split-horizon deltas spent %d B against %d B receiver-agnostic (%.2f), want ≤ 0.75",
			steady+1, periods, splitBytes, agnosticBytes, ratio)
	}
	t.Logf("over periods %d–%d: %d deltas, %d B split horizon, %d B receiver-agnostic (%.2f); %d records left out over the run",
		steady+1, periods, deltas, splitBytes, agnosticBytes, ratio, left)
}

// TestCrashSuspicionOnLossyRing: sibling horizon keeps a process record
// out of a delta toward a neighbour that last sent it at no greater
// distortion than ours, and that neighbour's copy can age past ours
// unseen until the mask expires. So a crash's suspicion may reach a
// node later than under split horizon alone, but by no more than
// LinkAgeTimeout periods. A ring of nine runs over mailboxes, the test
// carrying each frame itself and dropping a seeded tenth of them; on an
// odd ring the two nodes opposite any process hold it at the same
// distortion, so they mask it toward each other. After a warm-up node 0
// crashes: it stops ticking and its mail is lost both ways. Its
// neighbours suspect it (Event 2 books a failure into their copies),
// and the suspicion spreads as those copies are re-shipped. The test
// records the first period from which every live node's copy of process
// 0 carries a failure for the rest of the run.
//
// With process records on split horizon alone, the same run had the
// suspicion on every live node splitHorizonOnly periods after the crash
// (measured on the tree before process records had a mask); the test
// allows that plus LinkAgeTimeout. Over seeds 1–10 and 40 on rings of 7, 9 and
// 11 the two rules settled in the same period in 32 runs of 33, and the
// one that differed settled a period earlier with the mask.
func TestCrashSuspicionOnLossyRing(t *testing.T) {
	const n, crashAt, periods, lossRate, ageTimeout = 9, 60, 160, 0.1, 8
	const splitHorizonOnly = 7
	const crashed = topology.NodeID(0)
	g, err := topology.Ring(n)
	if err != nil {
		t.Fatal(err)
	}
	nodes, boxes := make([]*Node, n), make([]*mailTransport, n)
	for i := range nodes {
		id := topology.NodeID(i)
		boxes[i] = &mailTransport{sinkTransport: sinkTransport{id: id}}
		nodes[i] = newTestNode(t, Config{ID: id, NumProcs: n, Neighbors: g.Neighbors(id),
			Knowledge: knowledge.Params{LinkAgeTimeout: ageTimeout}}, boxes[i])
	}
	// suspects reports whether nd's copy of the crashed process carries a
	// failure.
	suspects := func(nd *Node) bool {
		nd.mu.Lock()
		defer nd.mu.Unlock()
		return nd.view.ProcEstimator(crashed).State().Fail > 0
	}
	// carries reports whether s holds a record of the crashed process,
	// and at which distortion.
	carries := func(s *knowledge.Snapshot) (dist int, ok bool) {
		for _, pr := range s.Procs {
			if pr.ID == crashed {
				return pr.Dist, true
			}
		}
		return 0, false
	}
	// supplier[i] is the sender of the frame whose copy of the crashed
	// process node i adopted last, by Algorithm 3's strict rule.
	supplier := make([]topology.NodeID, n)
	rng := rand.New(rand.NewSource(40))
	since := -1 // the first period of the current run in which every live node suspects
	masked := 0 // frames after the crash a mask bit kept the crashed process's record out of
	for p := 1; p <= periods; p++ {
		for i, nd := range nodes {
			if p <= crashAt || topology.NodeID(i) != crashed {
				nd.Tick()
			}
		}
		for _, nd := range nodes {
			if !nd.WaitSendIdle(5 * time.Second) {
				t.Fatalf("period %d: node %d's lanes never flushed", p, nd.ID())
			}
		}
		var mail []mail
		for _, box := range boxes {
			mail = append(mail, box.take()...)
		}
		snaps := make([]*knowledge.Snapshot, len(mail))
		for i, m := range mail {
			f, err := wire.Decode(m.frame)
			if err != nil || f.Kind != wire.FrameKnowledgeDelta {
				t.Fatalf("period %d: %d→%d sent %v (%v), want a delta", p, m.from, m.to, f, err)
			}
			snaps[i] = f.Delta.Snap
			if p <= crashAt || f.Delta.Since == 0 || supplier[m.from] == m.to {
				continue
			}
			if _, ok := carries(f.Delta.Snap); ok {
				continue
			}
			sender := nodes[m.from]
			sender.mu.Lock()
			cut, _ := sender.view.DeltaSince(f.Delta.Since)
			sender.mu.Unlock()
			if _, ok := carries(cut); ok {
				masked++
			}
		}
		for i, m := range mail {
			if rng.Float64() < lossRate || (p > crashAt && (m.from == crashed || m.to == crashed)) {
				continue
			}
			if d, ok := carries(snaps[i]); ok {
				nd := nodes[m.to]
				nd.mu.Lock()
				if _, mine := nd.view.CrashEstimate(crashed); d < mine {
					supplier[m.to] = m.from
				}
				nd.mu.Unlock()
			}
			nodes[m.to].handle(m.from, m.frame)
		}
		all := p > crashAt
		for i, nd := range nodes {
			all = all && (topology.NodeID(i) == crashed || suspects(nd))
		}
		switch {
		case !all:
			since = -1
		case since < 0:
			since = p
		}
	}
	if since < 0 || periods-since < 2*ageTimeout {
		t.Fatalf("the suspicion of process %d had not settled on every live node %d periods after its crash (since %d)", crashed, periods-crashAt, since)
	}
	if masked == 0 {
		t.Error("no mask bit kept the crashed process's record out of a frame after the crash: the run does not exercise sibling horizon")
	}
	got := since - crashAt
	t.Logf("every live node suspects process %d from %d periods after its crash on (split horizon only: %d); a mask kept its record out of %d frames after the crash",
		crashed, got, splitHorizonOnly, masked)
	if got > splitHorizonOnly+ageTimeout {
		t.Errorf("the suspicion reached every live node %d periods after the crash; split horizon alone took %d, and the mask expiry may add at most %d",
			got, splitHorizonOnly, ageTimeout)
	}
}
