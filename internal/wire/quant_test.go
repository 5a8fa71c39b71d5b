package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"adaptivecast/internal/bayes"
	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/topology"
)

// paperSnapshot builds a snapshot at the paper's estimator precision
// (U = 100) with a few links, the shape whose size the compact profiles
// are designed around.
func paperSnapshot(t *testing.T) *knowledge.Snapshot {
	t.Helper()
	v, err := knowledge.NewView(1, 8, []topology.NodeID{0, 2}, nil, knowledge.Params{Intervals: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		v.BeginPeriod()
	}
	return v.Snapshot()
}

// TestQuantizedHeartbeatSizeRatio pins the tentpole's wire-level win. At
// the paper's U = 100 a raw estimator record is ~806 bytes (flag, two
// counts, 100 floats, plus ID and distortion) and a count record 7–8
// (flag, U, successes, failures, plus ID and distortion): ~100× per
// record, less the frame and snapshot headers both encodings share. The
// floor is half of that.
func TestQuantizedHeartbeatSizeRatio(t *testing.T) {
	snap := paperSnapshot(t)
	raw, err := Encode(&Frame{Kind: FrameHeartbeat, Heartbeat: snap})
	if err != nil {
		t.Fatal(err)
	}
	counts, err := Encode(&Frame{Kind: FrameHeartbeat, Heartbeat: snap, Caps: CapsCounts})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(len(raw)) / float64(len(counts))
	if ratio < 50 {
		t.Errorf("count heartbeat is %dB vs %dB raw — only %.1fx smaller, want >= 50x",
			len(counts), len(raw), ratio)
	}
	t.Logf("U=100 heartbeat: raw %dB, counts %dB (%.1fx smaller)", len(raw), len(counts), ratio)
}

// TestQuantErrorBound is the differential test that replaced the v4
// profile's 1e-3 tolerance: across random lossy observation schedules an
// estimate that crosses the wire as evidence counts and the same estimate
// crossing as a raw vector rebuild posteriors that agree to <= 1e-12 (in
// fact to the bit), the counts keep their Observations(), refined
// estimators fall back to the raw layout inside the v5 frame, and a
// second hop re-encodes the same bytes in either layout.
func TestQuantErrorBound(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234} {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 50; trial++ {
			est := bayes.MustNew(100)
			p := rng.Float64() * 0.5 // the schedule's true loss rate
			steps := 1 + rng.Intn(400)
			for i := 0; i < steps; i++ {
				factor := 1 + rng.Intn(3)
				if rng.Float64() < p {
					est.ObserveFailure(factor)
				} else {
					est.ObserveSuccess(factor)
				}
			}
			refined := trial%3 == 0
			if refined {
				est = est.Refine() // no count record can carry it
				est.ObserveSuccess(1 + rng.Intn(20))
			}
			snap := &knowledge.Snapshot{
				From: 1, Seq: uint64(trial + 1),
				Procs: []knowledge.ProcRecord{{ID: 0, Dist: 1, Est: est.State()}},
			}
			for _, caps := range []uint64{0, CapsCounts} {
				b, err := Encode(&Frame{Kind: FrameHeartbeat, Heartbeat: snap, Caps: caps})
				if err != nil {
					t.Fatal(err)
				}
				f, err := Decode(b)
				if err != nil {
					t.Fatal(err)
				}
				st := f.Heartbeat.Procs[0].Est
				if want := caps != 0 && !refined; st.IsCounts() != want {
					t.Fatalf("seed %d trial %d caps %d: count layout used = %v, want %v", seed, trial, caps, st.IsCounts(), want)
				}
				got, err := bayes.NewFromState(st)
				if err != nil {
					t.Fatalf("seed %d trial %d caps %d: decoded state rejected: %v", seed, trial, caps, err)
				}
				if diff := math.Abs(got.Mean() - est.Mean()); diff > 1e-12 {
					t.Errorf("seed %d trial %d caps %d: mean diverged by %v after %d obs at p=%.3f",
						seed, trial, caps, diff, steps, p)
				}
				if st.IsCounts() && got.Observations() != est.Observations() {
					t.Errorf("seed %d trial %d: evidence count %d crossed the wire as %d",
						seed, trial, est.Observations(), got.Observations())
				}
				// Second hop: a relay adopts the decoded state and ships it on.
				f.Heartbeat.Procs[0].Est = got.State()
				b2, err := Encode(f)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(b, b2) {
					t.Fatalf("seed %d trial %d caps %d: second hop changed the bytes", seed, trial, caps)
				}
			}
		}
	}
}

// TestQuantizedDecodeRenormalizes pins the decode-side safety clamp of
// the previous (v4 quantized) profile, which still decodes: a belief
// block whose maximum drifts below 0 (a non-rebased sender) comes out of
// the wire re-normalized to a 0 maximum with the pairwise differences
// preserved, so a quantized merge can never inject out-of-support
// estimates. Nothing encodes the layout any more, so the frame is
// assembled by hand.
func TestQuantizedDecodeRenormalizes(t *testing.T) {
	beliefs := []float64{-1, -2.5, -3, -1.5}
	const scale = -3.0
	est := binary.AppendUvarint([]byte{flagQUniform}, uint64(len(beliefs)))
	est = appendFloat(est, scale)
	for _, lb := range beliefs {
		est = binary.LittleEndian.AppendUint16(est, uint16(math.Round(lb/scale*65535)))
	}
	b := handHeartbeat(version4, est)
	f, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	got := f.Heartbeat.Procs[0].Est.LogBeliefs
	maxLB := math.Inf(-1)
	for _, lb := range got {
		if lb > 0 {
			t.Fatalf("decoded log belief %v is positive", lb)
		}
		if lb > maxLB {
			maxLB = lb
		}
	}
	if maxLB != 0 {
		t.Errorf("decoded block maximum is %v, want re-normalized to 0", maxLB)
	}
	for i, want := range []float64{0, -1.5, -2, -0.5} {
		if diff := math.Abs(got[i] - want); diff > 1e-3 {
			t.Errorf("belief %d: got %v, want %v +- 1e-3 after renormalization", i, got[i], want)
		}
	}
	// A decoded v4 frame re-encodes as v4 with the raw layouts.
	again, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	if again[1] != version4 {
		t.Errorf("decoded v4 frame re-encoded at version %d", again[1])
	}
	if f2, err := Decode(again); err != nil || !framesEqual(f, f2) {
		t.Errorf("decoded v4 frame did not survive re-encoding: %v", err)
	}
}

// TestCapsValidation pins the well-formedness rules of the capability
// field across frame kinds.
func TestCapsValidation(t *testing.T) {
	snap := &knowledge.Snapshot{From: 1, Seq: 3}
	bad := []struct {
		name string
		f    *Frame
	}{
		{"heartbeat caps below v4", &Frame{Kind: FrameHeartbeat, Heartbeat: snap, Caps: 3}},
		{"heartbeat caps beyond max", &Frame{Kind: FrameHeartbeat, Heartbeat: snap, Caps: MaxCaps + 1}},
		{"caps on a data frame", &Frame{Kind: FrameData, Caps: CapsCounts,
			Data: &DataMsg{Origin: 0, Seq: 1, Root: 0, Body: []byte("x")}}},
		{"delta caps below v4", &Frame{Kind: FrameKnowledgeDelta,
			Delta: &KnowledgeDelta{Snap: snap, Ver: 2, Caps: 2}}},
		{"leave with caps", &Frame{Kind: FrameLeave,
			Member: &Membership{Node: 1, Epoch: 2, NumProcs: 3, Departed: []topology.NodeID{1}, Caps: CapsCounts}}},
		{"join caps beyond max", &Frame{Kind: FrameJoin,
			Member: &Membership{Node: 2, Epoch: 2, NumProcs: 3, Neighbors: []topology.NodeID{0}, Caps: 300}}},
	}
	for _, c := range bad {
		if _, err := Encode(c.f); err == nil {
			t.Errorf("%s: Encode should fail", c.name)
		}
	}
}

// TestV4DataFrameRejected pins the mixed-cluster invariant that keeps
// relays sound: data frames are encoded once and forwarded verbatim
// across peers of unknown capability, so a data frame above version 3
// must never exist — decoders drop it outright.
func TestV4DataFrameRejected(t *testing.T) {
	b, err := Encode(&Frame{Kind: FrameData, Data: &DataMsg{Origin: 0, Seq: 1, Root: 0, Body: []byte("x")}})
	if err != nil {
		t.Fatal(err)
	}
	for _, ver := range []byte{version4, version5} {
		forged := append([]byte(nil), b...)
		forged[1] = ver
		if _, err := Decode(forged); err == nil {
			t.Errorf("version-%d data frame should fail to decode", ver)
		}
	}
}

// TestNonCapsFramesStayLegacy pins the negotiation ladder's floor: every
// frame without a capability advert — whatever else it carries — encodes
// at wire version <= 3, byte-compatible with peers that predate it. (The
// epoch golden tests additionally pin the exact bytes of the static
// shapes; this covers every seed shape.)
func TestNonCapsFramesStayLegacy(t *testing.T) {
	for i, f := range seedFrames(t) {
		caps := f.Caps
		switch f.Kind {
		case FrameKnowledgeDelta:
			caps = f.Delta.Caps
		case FrameJoin, FrameLeave:
			caps = f.Member.Caps
		}
		if caps != 0 {
			continue
		}
		b, err := Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		if b[1] > version3 {
			t.Errorf("seed %d (kind %d) without caps encoded at version %d", i, f.Kind, b[1])
		}
	}
}

// TestQuantizedSectionZeroAlloc extends the zero-alloc encode gate to
// both layouts of a count state: cutting a count section into a warm
// buffer, materializing the same states into a raw section (the vector
// is built on the stack at the paper's U), and assembling a v5 delta
// frame around a shared section all allocate nothing.
func TestQuantizedSectionZeroAlloc(t *testing.T) {
	snap := paperSnapshot(t)
	buf := make([]byte, 0, 16384)
	for name, appendSection := range map[string]func([]byte, *knowledge.Snapshot) ([]byte, error){
		"count": AppendSnapshotSectionCounts,
		"raw":   AppendSnapshotSection,
	} {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := appendSection(buf[:0], snap); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s section encode allocated %.1f times per op, want 0", name, allocs)
		}
	}

	section, err := AppendSnapshotSectionCounts(buf, snap)
	if err != nil {
		t.Fatal(err)
	}
	d := &KnowledgeDelta{Since: 3, Ver: 5, Ack: 9, Cadence: 2, Epoch: 4, Caps: CapsCounts}
	fbuf := make([]byte, 0, len(section)+256)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := AppendDeltaFrame(fbuf[:0], d, section); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("v5 delta-frame assembly allocated %.1f times per op, want 0", allocs)
	}
}
