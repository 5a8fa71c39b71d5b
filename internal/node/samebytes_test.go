package node

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"adaptivecast/internal/dataplane"
	"adaptivecast/internal/heartbeat"
	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/topology"
	"adaptivecast/internal/wire"
)

// TestSameBytesDifferential replays one fixed heartbeat schedule through
// the shipping heartbeat plane, wire and plan code and pins what comes
// out: 64 views on a seeded random 4-connected graph, 40 periods of
// heartbeat.Plane periods (a delta toward each neighbor cut against the
// version it acked, split and sibling horizon leaving out what it is
// known to hold; the full snapshot, which clears the receiver's mask
// bits, while nothing is anchorable), seeded 10 % loss, every frame
// decoded through its receiver's Scratch and handed to its plane, and
// every view planning every fifth period. The SHA-256 of every heartbeat
// byte and of every plan (parents, AllocByNode, Σ m[j]) must equal the
// recorded values: a change to how knowledge stores or walks its records
// is protocol-neutral exactly when this test still passes. Split
// horizon, sibling horizon for link records and the retirement of wire
// v5 moved only the heartbeat bytes. Sibling horizon for process records
// moved the plans too: a masked neighbour whose copy aged past ours
// (Event 2, after InitialTimeout quiet periods) no longer gets ours
// until the mask expires, at most LinkAgeTimeout periods later, so it
// ages and re-adopts on another schedule. 90 of the 512 plans differ, 14
// of them in the tree; Σ m[j] over all of them went 311,050 → 311,453,
// +0.38 % at period 5 and at most +0.06 % from period 10 on. The
// one-version wire reset moved only the heartbeat bytes, 5,748,241 →
// 4,081,495 over the 10,240 frames: a section declares U once, records
// drop the layout flag and write IDs unsigned, and every delta carries
// its cadence and epoch. Driving the plane instead of a copy of its
// bookkeeping moved neither hash. Wire v7, whose section heads no longer
// declare U (the paper's constant 100) and whose records write their
// distortion unshifted, moved only the heartbeat bytes, 4,081,495 →
// 4,071,255: one byte per frame.
func TestSameBytesDifferential(t *testing.T) {
	const (
		n          = 64
		periods    = 40
		planEvery  = 5
		lossRate   = 0.1
		goldenHB   = "9dd40ef9c7c833004d77284bc0b15bc362cdc2e08570780d13ccadc98bdfcf6f"
		goldenPlan = "ba6b7b2c5186294dcec63c5b4388c28aa511c833167af66b9b831038159819e3"
	)
	rng := rand.New(rand.NewSource(2026))
	g, err := topology.RandomConnected(n, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	views := make([]*knowledge.View, n)
	planes := make([]*heartbeat.Plane, n)
	dplanes := make([]*dataplane.Plane, n)
	scratch := make([]wire.Scratch, n)
	for i := range views {
		id := topology.NodeID(i)
		if views[i], err = knowledge.NewView(id, n, g.Neighbors(id), nil, knowledge.Params{}); err != nil {
			t.Fatal(err)
		}
		planes[i] = heartbeat.New(views[i])
		dplanes[i] = dataplane.New(id, dataplane.DefaultK, views[i], false)
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
	var ws heartbeat.Period
	frames, plans := 0, 0
	for p := 1; p <= periods; p++ {
		var arriving []inflight
		for i, pl := range planes {
			id := topology.NodeID(i)
			pl.Cut(&ws, g.Neighbors(id))
			for k, o := range ws.Outbound() {
				frame, err := ws.AppendFrame(nil, k, 0)
				if err != nil {
					t.Fatal(err)
				}
				hbSum.Write(frame)
				frames++
				if rng.Float64() < lossRate {
					continue
				}
				arriving = append(arriving, inflight{id, o.To, frame})
			}
			ws.Reset()
		}
		for _, f := range arriving {
			fr, err := scratch[f.to].DecodeBorrow(f.frame)
			if err != nil {
				t.Fatal(err)
			}
			if err := planes[f.to].Receive(f.from, fr.Delta); err != nil {
				t.Fatal(err)
			}
		}
		if p%planEvery != 0 {
			continue
		}
		for _, dp := range dplanes {
			pl, _ := dp.Replan()
			if pl.Err != nil {
				planSum.Write([]byte(pl.Err.Error()))
				continue
			}
			for _, parent := range pl.Parents {
				putInt(int64(parent))
			}
			for _, m := range pl.Alloc {
				putInt(int64(m))
			}
			putInt(int64(pl.Planned))
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
