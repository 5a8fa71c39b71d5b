package scenario

import (
	"fmt"
	"math/rand"

	"adaptivecast/internal/bayes"
	"adaptivecast/internal/broadcast"
	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/node"
	"adaptivecast/internal/sim"
	"adaptivecast/internal/topology"
	"adaptivecast/internal/wire"
)

// byzantineReplay storms a 4-node twin cluster with hostile frames: a
// rogue peer replays every committed fuzz-corpus seed — one frame of
// every shape the encoder produces, the retired shapes (wire v1–v6, the
// raw float estimator layout) and the forged frames (overflowed counts,
// out-of-range IDs and distortions) — plus seeded mutations of them and
// crafted poisonous deltas, at every process mid-period while probes
// flow. The rogue is process 4, tombstoned in the ledger the cluster is
// built from, and the cluster starts at a membership epoch strictly newer
// than anything the corpus ever encoded, so the epoch fence (not luck) is
// what keeps historical data/delta/join/leave frames from forging
// deliveries or mutating the roster; a full heartbeat, which carries no
// epoch, is refused whatever it says. The harness does exact
// bookkeeping: it pre-computes, by decoding the injected set offline, how
// many frames must fail decode and how many must be epoch-fenced, and
// errors if the cores' counts disagree.
func byzantineReplay() Scenario {
	return Scenario{
		Name: "byzantine-replay",
		Description: "Rogue peer replays the full FuzzDecode corpus, seeded mutations and crafted current-epoch " +
			"deltas at a 4-node epoch-5 twin cluster while probes flow.",
		Topology: "ring(4), rogue tombstoned",
		Acceptance: "no panic, no forged delivery, post-storm probes fully delivered, epoch and roster " +
			"untouched, decode/stale-epoch counters exactly match the injected set",
		Run: runByzantineReplay,
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
				v = violation(v, "crafted deltas produced no merge errors")
			}
			if f.EpochChanges != 0 {
				v = violation(v, "adversary moved the membership epoch %d times", f.EpochChanges)
			}
			return v
		},
	}
}

// byzClusterEpoch is strictly newer than every epoch any committed corpus
// seed carries (the corpus tops out at epoch 4), so every historical
// data/delta frame is stale by construction and every join/leave replay
// is a no-op.
const byzClusterEpoch = 5

// byzRogue is the departed member the rogue speaks as: the peer that
// will not stay dead.
const byzRogue topology.NodeID = 4

// byzLedger is the ring(4) whose ledger holds the rogue's past: process
// 4 joined linked to 0, 1 and 2 (epoch 1), lost those links one
// membership change at a time (epochs 2–4) and was removed
// (byzClusterEpoch).
func byzLedger() (*topology.Graph, error) {
	g, err := topology.Ring(4)
	if err != nil {
		return nil, err
	}
	rogue := g.AddNode()
	for nb := range topology.NodeID(3) {
		if _, err := g.AddLink(rogue, nb); err != nil {
			return nil, err
		}
	}
	for nb := range topology.NodeID(3) {
		if _, _, err := g.RemoveLink(rogue, nb); err != nil {
			return nil, err
		}
	}
	if err := g.RemoveNode(rogue); err != nil {
		return nil, err
	}
	return g, nil
}

// injection is one hostile frame and the process it claims to come from.
type injection struct {
	from  topology.NodeID
	frame []byte
}

func runByzantineReplay(seed int64, short bool) (Figures, error) {
	g, err := byzLedger()
	if err != nil {
		return Figures{}, err
	}
	tw, err := newTwin(seed, g, 0, 0, broadcast.RunnerOptions{})
	if err != nil {
		return Figures{}, err
	}
	live := g.NumActive()

	// The injection set and its offline expectations.
	inject, err := buildInjectionSet(seed, short)
	if err != nil {
		return Figures{}, err
	}
	expectBadDecode, expectStale := 0, 0
	for _, in := range inject {
		f, err := wire.Decode(in.frame)
		switch {
		case err != nil:
			expectBadDecode++
		case f.Kind == wire.FrameData && f.Data.Epoch < byzClusterEpoch,
			f.Kind == wire.FrameKnowledgeDelta && f.Delta.Epoch < byzClusterEpoch:
			expectStale++
		}
	}

	// Converge, then baseline probes: the cluster must be healthy before
	// we can claim the storm did not regress it. Then the storm, a chunk
	// of the set per period, handed to every process mid-period so the
	// cluster is mid-conversation while hostile frames land. Then the
	// post-storm probes, the regression gate.
	warm := budget(short, 20, 12)
	for id := range topology.NodeID(live) {
		tw.probeAt(warm+int(id), id)
	}
	const chunk = 8
	storm := warm + live + 2
	for i := 0; i < len(inject); i += chunk {
		batch := inject[i:min(i+chunk, len(inject))]
		tw.atPeriod(storm+i/chunk, func() {
			for _, in := range batch {
				for id := range topology.NodeID(live) {
					tw.run.Proc(id).HandleMessage(in.from, sim.Message{Payload: in.frame})
				}
			}
		})
	}
	tail := storm + (len(inject)+chunk-1)/chunk + 3
	for id := range topology.NodeID(live) {
		tw.probeAt(tail+int(id), id)
	}
	f := tw.runFor(tail+live+3, tail)

	// Every delivery must be a probe's: anything else is a broadcast the
	// adversary smuggled in.
	probes := make(map[broadcast.MsgID]bool, len(tw.probes))
	for _, pr := range tw.probes {
		probes[pr.id] = true
	}
	for _, d := range tw.deliveries {
		if !probes[d.id] {
			return Figures{}, fmt.Errorf("forged delivery at node %d: origin %d seq %d", d.node, d.id.Origin, d.id.Seq)
		}
	}

	f.FramesInjected = len(inject) * live
	for id := range topology.NodeID(live) {
		p := tw.run.Proc(id)
		if got := p.Core().Epoch(); got != byzClusterEpoch {
			return Figures{}, fmt.Errorf("node %d at epoch %d after storm, want %d", id, got, byzClusterEpoch)
		}
		if got, want := len(p.Core().Neighbors()), len(g.Neighbors(id)); got != want {
			return Figures{}, fmt.Errorf("node %d roster has %d neighbors after storm, want %d", id, got, want)
		}
		f.DecodeErrors += p.DecodeErrors
		f.SnapshotMergeErrors += p.Outcomes[node.Refused]
	}
	if want := expectBadDecode * live; f.DecodeErrors != want {
		return Figures{}, fmt.Errorf("decode errors %d, offline expectation %d", f.DecodeErrors, want)
	}
	if want := expectStale * live; f.StaleEpochFrames != want {
		return Figures{}, fmt.Errorf("stale-epoch frames %d, offline expectation %d", f.StaleEpochFrames, want)
	}
	if want := len(craftedDeltas()) * live; f.SnapshotMergeErrors < want {
		return Figures{}, fmt.Errorf("snapshot merge errors %d < %d crafted rejections", f.SnapshotMergeErrors, want)
	}
	return f, nil
}

// buildInjectionSet assembles the rogue's arsenal: every committed
// corpus seed verbatim and seeded deterministic mutations of each, all
// sent in the rogue's name, and the crafted bad-merge deltas, each sent
// in the name it carries. Mutants are screened offline: a bit flip
// that lands on an epoch varint can accidentally mint a frame the
// cluster would be OBLIGED to honor (a join/leave announcing a newer
// epoch, or data at the current one) — that is an authorized membership
// authority, not a replay adversary, so such mutants are discarded.
func buildInjectionSet(seed int64, short bool) ([]injection, error) {
	seeds, err := wire.CorpusSeeds()
	if err != nil {
		return nil, err
	}
	inject := make([]injection, 0, len(seeds)*6)
	for _, s := range seeds {
		inject = append(inject, injection{byzRogue, s.Data})
	}
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))
	perSeed := budget(short, 4, 2)
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
				inject = append(inject, injection{byzRogue, m})
			}
		}
	}
	for _, f := range craftedDeltas() {
		b, err := wire.Encode(f)
		if err != nil {
			return nil, fmt.Errorf("crafting delta: %w", err)
		}
		inject = append(inject, injection{f.Delta.Snap.From, b})
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
	}
	return true // a full heartbeat carries no epoch, and is refused
}

// craftedDeltas are well-formed current-epoch deltas that pass the
// epoch fence and name the process they come from, so the view's own
// refusal is what stops them: each is rejected before any accounting
// side effect, and every process books one refusal per frame.
func craftedDeltas() []*wire.Frame {
	delta := func(s *knowledge.Snapshot) *wire.Frame {
		return &wire.Frame{Kind: wire.FrameKnowledgeDelta, Delta: &wire.KnowledgeDelta{Snap: s, Ver: 1, Epoch: byzClusterEpoch}}
	}
	return []*wire.Frame{
		// The departed rogue speaking in its own name.
		delta(&knowledge.Snapshot{From: byzRogue, Seq: 1}),
		// A sender outside the ID space entirely.
		delta(&knowledge.Snapshot{From: 99, Seq: 1}),
		// The rogue again, with an absurd sequence and a payload, in case
		// rejection ever depended on the snapshot being empty.
		delta(&knowledge.Snapshot{
			From: byzRogue, Seq: 1 << 40,
			Procs: []knowledge.ProcRecord{{ID: 0, Dist: 1, Est: bayes.State{}}},
		}),
	}
}
