package scenario

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"adaptivecast/internal/bayes"
	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/node"
	"adaptivecast/internal/topology"
	"adaptivecast/internal/transport"
	"adaptivecast/internal/wire"
)

// byzantineReplay is the one live-cluster scenario: a rogue peer replays
// every committed fuzz-corpus seed — one frame of every shape the encoder
// produces, the retired shapes (wire v1–v6, the raw float estimator
// layout) and the forged heartbeats (overflowed counts, out-of-range
// IDs and distortions) — plus seeded mutations of them and
// hand-crafted poisonous heartbeats, at a running 4-node Fabric cluster,
// mid-traffic.
// Replayed heartbeats name their original senders, not the rogue, so the
// node refuses them as frames claiming another sender. The cluster is built at a membership epoch
// strictly newer than anything the corpus ever encoded, so the epoch
// fence (not luck) is what keeps historical data/delta/join/leave frames
// from forging deliveries or mutating the roster. The harness does exact
// bookkeeping: it pre-computes, by decoding the injected set offline,
// how many frames must fail decode and how many must be epoch-fenced,
// and errors if the live counters disagree.
func byzantineReplay() Scenario {
	return Scenario{
		Name: "byzantine-replay",
		Description: "Rogue peer replays the full FuzzDecode corpus, seeded mutations and crafted bad-merge " +
			"heartbeats at a live 4-node epoch-5 cluster while probes flow.",
		Topology: "ring(4), live fabric",
		Acceptance: "no panic, no forged delivery, post-storm probes fully delivered, epoch and roster " +
			"untouched, decode/stale-epoch counters exactly match the injected set",
		Deterministic: false, // live goroutines: figures vary in timing-derived fields
		Run:           runByzantineReplay,
		Check: func(f Figures) (v []string) {
			if f.FramesInjected == 0 {
				v = violation(v, "no frames injected")
			}
			if f.DeliveryRatio < 1 {
				v = violation(v, "delivery ratio %.4f < 1 under replay storm", f.DeliveryRatio)
			}
			if f.TailDeliveryRatio < 1 {
				v = violation(v, "post-storm delivery %.4f < 1", f.TailDeliveryRatio)
			}
			if f.DecodeErrors == 0 {
				v = violation(v, "storm produced no decode errors")
			}
			if f.StaleEpochFrames == 0 {
				v = violation(v, "no historical frame was epoch-fenced")
			}
			if f.SnapshotMergeErrors == 0 {
				v = violation(v, "crafted heartbeats produced no merge errors")
			}
			if f.EpochChanges != 0 {
				v = violation(v, "adversary moved the membership epoch %d times", f.EpochChanges)
			}
			return v
		},
	}
}

// clusterEpoch is strictly newer than every epoch any committed corpus
// seed carries (the corpus tops out at epoch 4), so every historical
// data/delta frame is stale by construction and every join/leave replay
// is a no-op.
const byzClusterEpoch = 5

// liveProbe tracks one tracked broadcast on the live cluster.
type liveProbe struct {
	origin    topology.NodeID
	seq       uint64
	postStorm bool
	delivered map[topology.NodeID]bool
}

func runByzantineReplay(seed int64, short bool) (Figures, error) {
	g, err := topology.Ring(4)
	if err != nil {
		return Figures{}, err
	}
	fabric := transport.NewFabric(transport.FabricOptions{Seed: seedOr1(seed), QueueSize: 4096})
	defer func() { _ = fabric.Close() }()

	nodes := make([]*node.Node, g.NumNodes())
	for i := range nodes {
		id := topology.NodeID(i)
		nd, err := node.New(node.Config{
			ID:        id,
			NumProcs:  5, // ID space includes the tombstoned rogue
			Neighbors: g.Neighbors(id),
			Epoch:     byzClusterEpoch,
			Departed:  []topology.NodeID{4},
		}, fabric.Endpoint(id))
		if err != nil {
			return Figures{}, err
		}
		nodes[i] = nd
	}
	// The rogue speaks as the departed member 4 — the peer that will not
	// stay dead. Its endpoint drains silently.
	rogue := fabric.Endpoint(4)
	rogue.SetHandler(func(topology.NodeID, []byte) {})

	ticks := 0
	tick := func() {
		for _, nd := range nodes {
			nd.Tick()
		}
		ticks++
	}
	// settle runs n heartbeat periods and, after each, waits for the
	// cluster's receive counters to stop moving so no frame leaks across
	// period boundaries (the same idiom the node tests use).
	received := func() int {
		total := 0
		for _, nd := range nodes {
			s := nd.Stats()
			total += s.HeartbeatsReceived + s.DataReceived + s.SnapshotMergeErrors +
				s.DecodeErrors + s.StaleEpochFrames + s.AheadEpochFrames + s.EpochChanges
		}
		return total
	}
	settle := func(n int) {
		for p := 0; p < n; p++ {
			tick()
			last := received()
			for attempt := 0; attempt < 50; attempt++ {
				time.Sleep(500 * time.Microsecond)
				if now := received(); now == last {
					break
				} else {
					last = now
				}
			}
		}
	}

	var probes []*liveProbe
	probe := func(origin topology.NodeID, post bool) error {
		seq, _, err := nodes[origin].Broadcast([]byte(fmt.Sprintf("probe-%d-%d", origin, ticks)))
		if err != nil {
			return fmt.Errorf("probe from %d: %w", origin, err)
		}
		probes = append(probes, &liveProbe{
			origin: origin, seq: seq, postStorm: post,
			delivered: map[topology.NodeID]bool{},
		})
		return nil
	}
	// drain folds every pending delivery into its probe; a delivery that
	// matches no probe is a forged broadcast the adversary smuggled in.
	// queued is a done context: Next with it takes what is queued and
	// never waits.
	queued, cancel := context.WithCancel(context.Background())
	cancel()
	drain := func() error {
		for i, nd := range nodes {
			for {
				d, err := nd.Next(queued)
				if err != nil {
					break
				}
				matched := false
				for _, pr := range probes {
					if pr.origin == d.Origin && pr.seq == d.Seq {
						pr.delivered[topology.NodeID(i)] = true
						matched = true
						break
					}
				}
				if !matched {
					return fmt.Errorf("forged delivery at node %d: origin %d seq %d body %q",
						i, d.Origin, d.Seq, d.Body)
				}
			}
		}
		return nil
	}

	// Phase 1: converge, then baseline probes — the cluster must be
	// healthy before we can claim the storm did not regress it.
	settle(pick(short, 12, 20))
	for id := topology.NodeID(0); id < 4; id++ {
		if err := probe(id, false); err != nil {
			return Figures{}, err
		}
		settle(1)
	}
	settle(2)

	// Phase 2: build the injection set and its offline expectations.
	inject, err := buildInjectionSet(seed, short)
	if err != nil {
		return Figures{}, err
	}
	expectBadDecode, expectStale := 0, 0
	for _, b := range inject {
		f, err := wire.Decode(b)
		if err != nil {
			expectBadDecode++
			continue
		}
		// buildInjectionSet admits data/delta frames only when their
		// epoch predates the cluster's, so decoding kind is enough here.
		if f.Kind == wire.FrameData || f.Kind == wire.FrameKnowledgeDelta {
			expectStale++
		}
	}

	// Phase 3: the storm, interleaved with live heartbeat periods so the
	// cluster is mid-conversation while hostile frames land.
	injected := 0
	const chunk = 8
	for i := 0; i < len(inject); i += chunk {
		end := min(i+chunk, len(inject))
		for _, b := range inject[i:end] {
			for id := topology.NodeID(0); id < 4; id++ {
				if err := rogue.Send(id, b); err != nil {
					return Figures{}, fmt.Errorf("rogue send: %w", err)
				}
				injected++
			}
		}
		settle(1)
	}
	settle(3)

	// Phase 4: post-storm probes — the regression gate.
	for id := topology.NodeID(0); id < 4; id++ {
		if err := probe(id, true); err != nil {
			return Figures{}, err
		}
		settle(1)
	}
	settle(3)
	if err := drain(); err != nil {
		return Figures{}, err
	}

	// Exact bookkeeping. Overflows would silently eat injected frames and
	// void the equalities, so they are an error, not a tolerance.
	if fs := fabric.Stats(); fs.Overflows != 0 {
		return Figures{}, fmt.Errorf("fabric overflowed %d frames; counter accounting void", fs.Overflows)
	}
	f := Figures{
		Periods:           ticks,
		ConvergedAtPeriod: -1, // live harness does not inspect views
		FramesInjected:    injected,
	}
	for i, nd := range nodes {
		if got := nd.Epoch(); got != byzClusterEpoch {
			return Figures{}, fmt.Errorf("node %d at epoch %d after storm, want %d", i, got, byzClusterEpoch)
		}
		if got, want := len(nd.Neighbors()), len(g.Neighbors(topology.NodeID(i))); got != want {
			return Figures{}, fmt.Errorf("node %d roster has %d neighbors after storm, want %d", i, got, want)
		}
		s := nd.Stats()
		f.DecodeErrors += s.DecodeErrors
		f.SnapshotMergeErrors += s.SnapshotMergeErrors
		f.StaleEpochFrames += s.StaleEpochFrames
		f.EpochChanges += s.EpochChanges
		f.HeartbeatsSent += s.HeartbeatsSent
		f.MessagesSent += s.HeartbeatsSent + s.DataSent
	}
	if want := expectBadDecode * len(nodes); f.DecodeErrors != want {
		return Figures{}, fmt.Errorf("decode errors %d, offline expectation %d", f.DecodeErrors, want)
	}
	if want := expectStale * len(nodes); f.StaleEpochFrames != want {
		return Figures{}, fmt.Errorf("stale-epoch frames %d, offline expectation %d", f.StaleEpochFrames, want)
	}
	if want := len(craftedHeartbeats()) * len(nodes); f.SnapshotMergeErrors < want {
		return Figures{}, fmt.Errorf("snapshot merge errors %d < %d crafted rejections", f.SnapshotMergeErrors, want)
	}

	worst := 1.0
	var tailDelivered, tailExpected int
	for _, pr := range probes {
		f.ProbesSent++
		f.ProbesDelivered += len(pr.delivered)
		f.ProbesExpected += len(nodes)
		if r := float64(len(pr.delivered)) / float64(len(nodes)); r < worst {
			worst = r
		}
		if pr.postStorm {
			tailDelivered += len(pr.delivered)
			tailExpected += len(nodes)
		}
	}
	f.WorstProbeRatio = worst
	if f.ProbesExpected > 0 {
		f.DeliveryRatio = float64(f.ProbesDelivered) / float64(f.ProbesExpected)
	}
	if tailExpected > 0 {
		f.TailDeliveryRatio = float64(tailDelivered) / float64(tailExpected)
	}
	return f, nil
}

// buildInjectionSet assembles the rogue's arsenal: every committed
// corpus seed verbatim, seeded deterministic mutations of each, and the
// crafted bad-merge heartbeats. Mutants are screened offline: a bit flip
// that lands on an epoch varint can accidentally mint a frame the
// cluster would be OBLIGED to honor (a join/leave announcing a newer
// epoch, or data at the current one) — that is an authorized membership
// authority, not a replay adversary, so such mutants are discarded.
func buildInjectionSet(seed int64, short bool) ([][]byte, error) {
	seeds, err := wire.CorpusSeeds()
	if err != nil {
		return nil, err
	}
	inject := make([][]byte, 0, len(seeds)*6)
	for _, s := range seeds {
		inject = append(inject, s.Data)
	}
	rng := rand.New(rand.NewSource(seedOr1(seed)))
	perSeed := pick(short, 2, 4)
	for _, s := range seeds {
		for k := 0; k < perSeed; k++ {
			m := append([]byte(nil), s.Data...)
			switch rng.Intn(3) {
			case 0: // flip 1–3 bits
				flips := 1 + rng.Intn(3)
				for b := 0; b < flips; b++ {
					m[rng.Intn(len(m))] ^= 1 << uint(rng.Intn(8))
				}
			case 1: // truncate
				if len(m) > 1 {
					m = m[:1+rng.Intn(len(m)-1)]
				}
			case 2: // garbage tail
				tail := make([]byte, 1+rng.Intn(8))
				rng.Read(tail)
				m = append(m, tail...)
			}
			if admissibleReplay(m) {
				inject = append(inject, m)
			}
		}
	}
	for _, f := range craftedHeartbeats() {
		b, err := wire.Encode(f)
		if err != nil {
			return nil, fmt.Errorf("crafting heartbeat: %w", err)
		}
		inject = append(inject, b)
	}
	return inject, nil
}

// admissibleReplay reports whether a mutated frame is something a replay
// adversary could actually hold: malformed bytes and historical frames
// yes; frames claiming the current or a future membership epoch no (the
// protocol trusts those by design, and forging them is key compromise,
// not replay).
func admissibleReplay(frame []byte) bool {
	f, err := wire.Decode(frame)
	if err != nil {
		return true
	}
	switch f.Kind {
	case wire.FrameData:
		return f.Data.Epoch < byzClusterEpoch
	case wire.FrameKnowledgeDelta:
		return f.Delta.Epoch < byzClusterEpoch
	case wire.FrameJoin, wire.FrameLeave:
		return f.Member.Epoch <= byzClusterEpoch // at-or-below: dropped as already applied
	case wire.FrameHeartbeat:
		// Heartbeats carry no epoch (they predate the fence): any
		// replayed heartbeat is something an adversary could hold.
		return true
	}
	return true
}

// craftedHeartbeats are well-formed frames whose knowledge snapshot every
// view must refuse: heartbeats are not epoch-gated (they predate epochs),
// so snapshot validation is the only line of defense, and each of these
// is rejected before any accounting side effect. Every node must book
// one SnapshotMergeError per frame.
func craftedHeartbeats() []*wire.Frame {
	return []*wire.Frame{
		// The departed rogue speaking in its own name.
		{Kind: wire.FrameHeartbeat, Heartbeat: &knowledge.Snapshot{From: 4, Seq: 1}},
		// A sender outside the ID space entirely.
		{Kind: wire.FrameHeartbeat, Heartbeat: &knowledge.Snapshot{From: 99, Seq: 1}},
		// The rogue again, with an absurd sequence and a payload, in case
		// rejection ever depended on the snapshot being empty.
		{Kind: wire.FrameHeartbeat, Heartbeat: &knowledge.Snapshot{
			From: 4, Seq: 1 << 40,
			Procs: []knowledge.ProcRecord{{ID: 0, Dist: 1, Est: bayes.State{}}},
		}},
	}
}

func seedOr1(seed int64) int64 {
	if seed == 0 {
		return 1
	}
	return seed
}

func pick(short bool, shortVal, fullVal int) int {
	if short {
		return shortVal
	}
	return fullVal
}
