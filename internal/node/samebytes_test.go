package node

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/topology"
	"adaptivecast/internal/wire"
)

// TestSameBytesDifferential replays one fixed heartbeat schedule through
// the shipping knowledge/wire/plan code and pins what comes out: 64 views
// on a seeded random 4-connected graph, 40 periods of delta frames cut
// toward each neighbor against the version it acked (DeltaTo, so split
// horizon leaves out what the receiver supplied and sibling horizon the
// process and link records it last sent at no greater distortion; a
// full snapshot, which clears the receiver's mask bits as Tick does,
// while nothing is anchorable), seeded 10 % loss, every frame decoded through its
// receiver's Scratch and merged, and every view planning every fifth
// period. The SHA-256 of every heartbeat byte and of every plan (parents,
// AllocByNode, Σ m[j]) must equal the recorded values: a change to how
// knowledge stores or walks its records is protocol-neutral exactly when
// this test still passes. Split horizon, sibling horizon for link
// records and the retirement of wire v5 (every frame here now takes a
// version-1 header with no Caps) moved only the heartbeat bytes. Sibling
// horizon for process records moved the plans too: a masked neighbour
// whose copy aged past ours (Event 2, after InitialTimeout quiet
// periods) no longer gets ours until the mask expires, at most
// LinkAgeTimeout periods later, so it ages and re-adopts on another
// schedule. 90 of the 512 plans differ, 14 of them in the tree; Σ m[j]
// over all of them went 311,050 → 311,453, +0.38 % at period 5 and at
// most +0.06 % from period 10 on. The one-version wire reset moved only
// the heartbeat bytes, 5,748,241 → 4,081,495 over the 10,240 frames: a
// section declares U once, records drop the layout flag and write IDs
// unsigned, and every delta carries its cadence and epoch.
func TestSameBytesDifferential(t *testing.T) {
	const (
		n          = 64
		periods    = 40
		planEvery  = 5
		lossRate   = 0.1
		goldenHB   = "5d1760adb7e786ff185698dfc473469f4426378ad822a29a9d889ede4999e4c4"
		goldenPlan = "ba6b7b2c5186294dcec63c5b4388c28aa511c833167af66b9b831038159819e3"
	)
	rng := rand.New(rand.NewSource(2026))
	g, err := topology.RandomConnected(n, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	views := make([]*knowledge.View, n)
	// acked[i][j] is the version of i's view j last acknowledged (the base
	// of i's next cut toward j); seen[i][j] the version of j's view i holds
	// (echoed to j as Ack), kept as handleDelta keeps them.
	acked := make([]map[topology.NodeID]uint64, n)
	seen := make([]map[topology.NodeID]uint64, n)
	scratch := make([]wire.Scratch, n)
	for i := range views {
		id := topology.NodeID(i)
		if views[i], err = knowledge.NewView(id, n, g.Neighbors(id), nil, knowledge.Params{}); err != nil {
			t.Fatal(err)
		}
		acked[i], seen[i] = map[topology.NodeID]uint64{}, map[topology.NodeID]uint64{}
	}
	hbSum, planSum := sha256.New(), sha256.New()
	type inflight struct {
		from, to topology.NodeID
		frame    []byte
	}
	var word [8]byte
	putInt := func(v int64) {
		binary.LittleEndian.PutUint64(word[:], uint64(v))
		planSum.Write(word[:])
	}
	frames, plans := 0, 0
	for p := 1; p <= periods; p++ {
		var arriving []inflight
		for i, v := range views {
			id := topology.NodeID(i)
			v.BeginPeriod()
			for _, nb := range g.Neighbors(id) {
				base := acked[i][nb]
				snap, ok := v.DeltaTo(base, nb)
				if !ok {
					snap, base = v.Snapshot(), 0
					v.Unmask(nb)
				}
				sec, err := wire.AppendSnapshotSection(nil, snap)
				if err != nil {
					t.Fatal(err)
				}
				frame, err := wire.AppendDeltaFrame(nil, &wire.KnowledgeDelta{
					Since: base, Ver: v.Version(), Ack: seen[i][nb],
				}, sec)
				if err != nil {
					t.Fatal(err)
				}
				hbSum.Write(frame)
				frames++
				if rng.Float64() < lossRate {
					continue
				}
				arriving = append(arriving, inflight{id, nb, frame})
			}
		}
		for _, f := range arriving {
			fr, err := scratch[f.to].DecodeBorrow(f.frame)
			if err != nil {
				t.Fatal(err)
			}
			d := fr.Delta
			if err := views[f.to].MergeSnapshotAt(d.Snap, int(d.Cadence)); err != nil {
				t.Fatal(err)
			}
			switch s := seen[f.to]; {
			case d.Since == 0:
				s[f.from] = d.Ver
			case d.Since <= s[f.from] && d.Ver > s[f.from]:
				s[f.from] = d.Ver
			}
			acked[f.to][f.from] = d.Ack
		}
		if p%planEvery != 0 {
			continue
		}
		for i, v := range views {
			ws := planWorkspaces.Get()
			if err := v.EstimatedConfigInto(&ws.graph, &ws.config); err != nil {
				t.Fatal(err)
			}
			pl := ws.plan(topology.NodeID(i), DefaultK)
			planWorkspaces.Put(ws)
			if pl.err != nil {
				planSum.Write([]byte(pl.err.Error()))
				continue
			}
			for _, parent := range pl.parents {
				putInt(int64(parent))
			}
			for _, m := range pl.alloc {
				putInt(int64(m))
			}
			putInt(int64(pl.planned))
			plans++
		}
	}
	if frames != periods*2*g.NumLinks() || plans != periods/planEvery*n {
		t.Fatalf("cut %d frames and built %d plans; want %d and %d", frames, plans, periods*2*g.NumLinks(), periods/planEvery*n)
	}
	if got := hex.EncodeToString(hbSum.Sum(nil)); got != goldenHB {
		t.Errorf("heartbeat bytes hash %s, golden %s", got, goldenHB)
	}
	if got := hex.EncodeToString(planSum.Sum(nil)); got != goldenPlan {
		t.Errorf("plan hash %s, golden %s", got, goldenPlan)
	}
}
