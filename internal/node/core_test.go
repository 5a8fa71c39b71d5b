package node

import (
	"fmt"
	"slices"
	"testing"

	"adaptivecast/internal/bayes"
	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/topology"
	"adaptivecast/internal/wire"
)

// TestCoreReceiveOutcomes steps a Core with every kind of frame at an
// older, the same and a newer epoch than its own, first and again, from
// the peer it names and forged, and checks the one outcome Receive
// reports for each. The core is process 1 of the chain 0 — 1 — 2 at
// epoch 2. A forged heartbeat or delta names another sender than the one
// it came from; a forged data frame carries an origin outside the ID
// space; an announcement names no sender, so a forged one is one that
// says this process left. A full heartbeat, a kind no process sends, is
// refused whatever it carries. Every outcome but Duplicate and Ignored
// moves exactly one Stats counter (Node.count), so a runtime that counts
// the frames it handed the core can tell when a round of them is done.
func TestCoreReceiveOutcomes(t *testing.T) {
	const epoch = 2
	snap := func(from topology.NodeID) *knowledge.Snapshot {
		return &knowledge.Snapshot{From: from, Seq: 1, Procs: []knowledge.ProcRecord{{ID: 2, Dist: 1, Est: bayes.State{Succ: 40}}}}
	}
	frames := map[string]func(e uint64, forged bool) *wire.Frame{
		"heartbeat": func(e uint64, forged bool) *wire.Frame {
			from := topology.NodeID(0)
			if forged {
				from = 2
			}
			return &wire.Frame{Kind: wire.FrameHeartbeat, Heartbeat: snap(from)}
		},
		"delta": func(e uint64, forged bool) *wire.Frame {
			from := topology.NodeID(0)
			if forged {
				from = 2
			}
			return &wire.Frame{Kind: wire.FrameKnowledgeDelta, Delta: &wire.KnowledgeDelta{Snap: snap(from), Ver: 1, Cadence: 1, Epoch: e}}
		},
		"data": func(e uint64, forged bool) *wire.Frame {
			origin := topology.NodeID(0)
			if forged {
				origin = 9
			}
			return &wire.Frame{Kind: wire.FrameData, Data: &wire.DataMsg{
				Origin: origin, Seq: 1, Root: 0, Parents: chainParents(3), AllocByNode: twoPerEdge(chainParents(3)),
				Body: []byte("x"), Epoch: e,
			}}
		},
		"join": func(e uint64, forged bool) *wire.Frame {
			return &wire.Frame{Kind: wire.FrameJoin, Member: &wire.Membership{Node: 3, Epoch: e, NumProcs: 4, Neighbors: []topology.NodeID{1}}}
		},
		"leave": func(e uint64, forged bool) *wire.Frame {
			m := &wire.Membership{Node: 2, Epoch: e, NumProcs: 3, Departed: []topology.NodeID{2}}
			if forged {
				m.Node, m.Departed = 1, []topology.NodeID{1}
			}
			return &wire.Frame{Kind: wire.FrameLeave, Member: m}
		},
	}
	want := func(kind string, e uint64, again, forged bool) Outcome {
		switch kind {
		case "heartbeat":
			return Refused
		case "join", "leave":
			if e <= epoch || again || (forged && kind == "leave") {
				return Ignored
			}
			return Adopted
		}
		switch {
		case e < epoch:
			return Stale
		case e > epoch:
			return Ahead
		case kind == "delta" && forged:
			return Refused
		case kind == "delta":
			return Merged
		case forged:
			return Forged
		case again:
			return Duplicate
		}
		return Delivered
	}
	for kind, frame := range frames {
		for _, e := range []uint64{epoch - 1, epoch, epoch + 1} {
			for _, forged := range []bool{false, true} {
				c, err := NewCore(Config{ID: 1, NumProcs: 3, Neighbors: []topology.NodeID{0, 2}, Epoch: epoch}, nil)
				if err != nil {
					t.Fatal(err)
				}
				var fx Effects
				for _, again := range []bool{false, true} {
					f := frame(e, forged)
					raw, err := wire.Encode(f)
					if err != nil {
						t.Fatal(err)
					}
					c.Receive(0, f, raw, &fx)
					name := fmt.Sprintf("%s epoch %d forged=%v again=%v", kind, e, forged, again)
					if w := want(kind, e, again, forged); fx.Outcome != w {
						t.Errorf("%s: outcome %d, want %d", name, fx.Outcome, w)
					}
					if fx.Deliver != (fx.Outcome == Delivered) {
						t.Errorf("%s: outcome %d delivers %v", name, fx.Outcome, fx.Deliver)
					}
				}
			}
		}
	}
}

// FuzzCoreReceive hands every input, decoded through a wire.Scratch, to
// a fresh Core twice: process 0 of a ring(4) at epoch 5 whose ID space
// holds the tombstoned process 4, the frames coming from its neighbour
// 1. Seeded with the committed FuzzDecode corpus, it checks what no
// frame may do to the core: report an outcome its kind cannot produce (a
// full heartbeat is only ever refused), deliver a copy it delivered
// before, deliver an origin outside the ID space, move the epoch back,
// or leave an estimator above bayes.MaxEvidence.
func FuzzCoreReceive(f *testing.F) {
	seeds, err := wire.CorpusSeeds()
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range seeds {
		f.Add(s.Data)
	}
	outcomes := map[wire.FrameKind][]Outcome{
		wire.FrameHeartbeat:      {Refused},
		wire.FrameKnowledgeDelta: {Merged, Refused, Stale, Ahead},
		wire.FrameData:           {Delivered, Duplicate, Forged, Stale, Ahead},
		wire.FrameJoin:           {Ignored, Adopted},
		wire.FrameLeave:          {Ignored, Adopted},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var sc wire.Scratch
		frame, err := sc.DecodeBorrow(data)
		if err != nil {
			return
		}
		c, err := NewCore(Config{ID: 0, NumProcs: 5, Neighbors: []topology.NodeID{1, 3}, Epoch: 5, Departed: []topology.NodeID{4}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var fx Effects
		for i := range 2 {
			epoch := c.Epoch()
			c.Receive(1, frame, data, &fx)
			if !slices.Contains(outcomes[frame.Kind], fx.Outcome) {
				t.Fatalf("copy %d: frame kind %d reported outcome %d", i, frame.Kind, fx.Outcome)
			}
			if fx.Outcome == Delivered {
				if i > 0 {
					t.Fatalf("the second copy of (%d, %d) was delivered", fx.Delivery.Origin, fx.Delivery.Seq)
				}
				if o := fx.Delivery.Origin; o < 0 || int(o) >= c.View().NumProcs() {
					t.Fatalf("delivered origin %d outside [0, %d)", o, c.View().NumProcs())
				}
			}
			if c.Epoch() < epoch {
				t.Fatalf("copy %d moved the epoch back from %d to %d", i, epoch, c.Epoch())
			}
		}
		snap := c.View().Snapshot()
		for _, r := range snap.Procs {
			if r.Est.Succ+r.Est.Fail > bayes.MaxEvidence {
				t.Fatalf("process %d estimator holds %+v, above %d", r.ID, r.Est, bayes.MaxEvidence)
			}
		}
		for _, r := range snap.Links {
			if r.Est.Succ+r.Est.Fail > bayes.MaxEvidence {
				t.Fatalf("link %v estimator holds %+v, above %d", r.Link, r.Est, bayes.MaxEvidence)
			}
		}
	})
}
