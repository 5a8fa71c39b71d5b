package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
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
// fact to the bit), the counts keep their Observations(), estimators
// adopted from a raw vector fall back to the raw layout inside the v5
// frame, and a second hop re-encodes the same bytes in either layout.
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
			rawPrior := trial%3 == 0
			if rawPrior {
				// Adopted from its own raw vector: no count record can carry it.
				st := est.State()
				var err error
				if est, err = bayes.NewFromState(bayes.State{Intervals: 100, LogBeliefs: st.AppendLogBeliefs(nil)}); err != nil {
					t.Fatal(err)
				}
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
				if want := caps != 0 && !rawPrior; st.IsCounts() != want {
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

// TestQuantizedDecodeRenormalizes keeps its name from when the v4
// quantized profile still decoded. It now pins the retirement: a v4
// heartbeat fails as an unsupported version whatever its estimator
// layout, fresh, borrowed and through a Scratch a valid frame just used,
// and the quantized estimator flags are unknown layouts even inside a v5
// frame, as is the retired refined-grid flag 0x00. The same raw record in
// a v5 header decodes.
func TestQuantizedDecodeRenormalizes(t *testing.T) {
	quantized := binary.AppendUvarint([]byte{2}, 4) // the v4 uniform-grid flag, U = 4
	quantized = appendFloat(quantized, -3)          // the shared belief scale
	for _, code := range []uint16{21845, 54613, 65535, 32768} {
		quantized = binary.LittleEndian.AppendUint16(quantized, code)
	}
	raw := binary.AppendUvarint([]byte{flagUniform}, 2)
	raw = binary.AppendUvarint(raw, 2)
	raw = appendFloats(raw, []float64{0, -1})

	for _, c := range []struct {
		name  string
		frame []byte
		why   string
	}{
		{"v4 quantized", handHeartbeat(4, quantized), "unsupported version 4"},
		{"v4 raw", handHeartbeat(4, raw), "unsupported version 4"},
		{"quantized flag in v5", handHeartbeat(version5, quantized), "unknown estimator flags"},
		{"quantized window flag in v5", handHeartbeat(version5, append([]byte{3}, quantized[1:]...)), "unknown estimator flags"},
		{"refined-grid flag in v5", handHeartbeat(version5, append([]byte{0}, raw[1:]...)), "unknown estimator flags"},
		{"refined-grid flag in v1", handHeartbeat(version, append([]byte{0}, raw[1:]...)), "unknown estimator flags"},
	} {
		for what, err := range decodeEverywhere(t, c.frame) {
			if err == nil || !strings.Contains(err.Error(), c.why) {
				t.Errorf("%s: %s says %v, want an error naming %q", c.name, what, err, c.why)
			}
		}
	}
	f, err := Decode(handHeartbeat(version5, raw))
	if err != nil {
		t.Fatalf("a raw record in a v5 heartbeat must decode: %v", err)
	}
	if got := f.Heartbeat.Procs[0].Est; got.Intervals != 2 || !floatsEqual(got.LogBeliefs, []float64{0, -1}) {
		t.Errorf("raw record decoded as %+v", got)
	}
}

// TestCapsValidation pins the well-formedness rules of the Caps field:
// nonzero values below CapsCounts or above MaxCaps are refused by every
// encoder, a v5 frame whose Caps is below its own version does not
// decode, and only heartbeat and delta frames carry the field.
func TestCapsValidation(t *testing.T) {
	snap := &knowledge.Snapshot{From: 1, Seq: 3}
	for _, caps := range []uint64{1, 3, CapsCounts - 1, MaxCaps + 1} {
		hb := &Frame{Kind: FrameHeartbeat, Heartbeat: snap, Caps: caps}
		if _, err := Encode(hb); err == nil {
			t.Errorf("heartbeat caps %d: Encode should fail", caps)
		}
		d := &KnowledgeDelta{Snap: snap, Ver: 2, Caps: caps}
		if _, err := Encode(&Frame{Kind: FrameKnowledgeDelta, Delta: d}); err == nil {
			t.Errorf("delta caps %d: Encode should fail", caps)
		}
		if _, err := AppendDeltaFrame(nil, d, nil); err == nil {
			t.Errorf("delta caps %d: AppendDeltaFrame should fail", caps)
		}
	}
	for _, caps := range []uint64{CapsCounts, MaxCaps} {
		b, err := Encode(&Frame{Kind: FrameHeartbeat, Heartbeat: snap, Caps: caps})
		if err != nil {
			t.Fatalf("heartbeat caps %d refused: %v", caps, err)
		}
		if f, err := Decode(b); err != nil || f.Caps != caps || b[1] != version5 {
			t.Errorf("heartbeat caps %d: version %d, decoded %+v, %v", caps, b[1], f, err)
		}
	}
	if _, err := Encode(&Frame{Kind: FrameData, Caps: CapsCounts,
		Data: &DataMsg{Origin: 0, Seq: 1, Root: 0, Body: []byte("x")}}); err == nil {
		t.Error("caps on a data frame: Encode should fail")
	}
	below := []byte{magic, version5, byte(FrameHeartbeat), CapsCounts - 1, 2, 1, 0, 0}
	if _, err := Decode(below); err == nil {
		t.Error("a v5 heartbeat whose caps is below its version decoded")
	}
}

// TestV4DataFrameRejected: a data frame rides version 1 or 3 and no
// other, so its header at version 2, 4 or 5 fails to decode.
func TestV4DataFrameRejected(t *testing.T) {
	b, err := Encode(&Frame{Kind: FrameData, Data: &DataMsg{Origin: 0, Seq: 1, Root: 0, Body: []byte("x")}})
	if err != nil {
		t.Fatal(err)
	}
	for _, ver := range []byte{version2, 4, version5} {
		forged := append([]byte(nil), b...)
		forged[1] = ver
		if _, err := Decode(forged); err == nil {
			t.Errorf("version-%d data frame should fail to decode", ver)
		}
	}
}

// TestNonCapsFramesStayLegacy: every frame without Caps, whatever else it
// carries, encodes at wire version <= 3; only Caps makes a v5 frame. (The
// epoch golden tests additionally pin the exact bytes of the static
// shapes; this covers every seed shape.)
func TestNonCapsFramesStayLegacy(t *testing.T) {
	for i, f := range seedFrames(t) {
		caps := f.Caps
		if f.Kind == FrameKnowledgeDelta {
			caps = f.Delta.Caps
		}
		b, err := Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		if (caps != 0) != (b[1] == version5) || b[1] > version5 {
			t.Errorf("seed %d (kind %d, caps %d) encoded at version %d", i, f.Kind, caps, b[1])
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
