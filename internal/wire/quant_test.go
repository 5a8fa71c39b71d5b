package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
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
	v, err := knowledge.NewView(1, 8, []topology.NodeID{0, 2}, nil, knowledge.Params{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		v.BeginPeriod()
	}
	return v.Snapshot()
}

// TestQuantizedHeartbeatSizeRatio keeps the name it had when it compared
// the compact profile with the raw float layout, which was ~100× larger
// per record at the paper's U = 100. It pins the size of the one layout
// left: a record is its ID (or endpoints) and distortion plus four bytes
// of estimator at this evidence, whatever U is.
func TestQuantizedHeartbeatSizeRatio(t *testing.T) {
	snap := paperSnapshot(t)
	b, err := Encode(&Frame{Kind: FrameHeartbeat, Heartbeat: snap})
	if err != nil {
		t.Fatal(err)
	}
	records := len(snap.Procs) + len(snap.Links)
	if limit := headerSize + 4 + 8*records; len(b) > limit {
		t.Errorf("a U=100 heartbeat of %d records is %dB, want <= %dB", records, len(b), limit)
	}
	t.Logf("U=100 heartbeat: %d records in %dB", records, len(b))
}

// TestQuantErrorBound is the differential test that replaced the v4
// profile's 1e-3 tolerance: across random lossy observation schedules an
// estimate that crosses the wire as evidence counts rebuilds the
// bit-identical posterior and keeps its Observations(), and a second hop
// re-encodes the same bytes.
func TestQuantErrorBound(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234} {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 50; trial++ {
			est := bayes.New()
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
			snap := &knowledge.Snapshot{
				From: 1, Seq: uint64(trial + 1),
				Procs: []knowledge.ProcRecord{{ID: 0, Dist: 1, Est: est.State()}},
			}
			b, err := Encode(&Frame{Kind: FrameHeartbeat, Heartbeat: snap})
			if err != nil {
				t.Fatal(err)
			}
			f, err := Decode(b)
			if err != nil {
				t.Fatal(err)
			}
			got, err := bayes.NewFromState(f.Heartbeat.Procs[0].Est)
			if err != nil {
				t.Fatalf("seed %d trial %d: decoded state rejected: %v", seed, trial, err)
			}
			if got.Mean() != est.Mean() {
				t.Errorf("seed %d trial %d: mean diverged by %v after %d obs at p=%.3f",
					seed, trial, math.Abs(got.Mean()-est.Mean()), steps, p)
			}
			if got.Observations() != est.Observations() {
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
				t.Fatalf("seed %d trial %d: second hop changed the bytes", seed, trial)
			}
		}
	}
}

// TestQuantizedDecodeRenormalizes keeps its name from when the v4
// quantized profile still decoded. It now pins the retirements: under a
// v1, v4, v5 or v6 header every retired estimator layout — quantized, raw
// float (flags 0x01), refined-grid (0x00), the flagged count layout
// (0x04) and v6's section-U layout — fails as an unsupported version,
// fresh, borrowed and through a Scratch a valid frame just used. A record
// of the current layout under the current header decodes.
func TestQuantizedDecodeRenormalizes(t *testing.T) {
	floats := func(b []byte, fs ...float64) []byte {
		for _, f := range fs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
		}
		return b
	}
	quantized := binary.AppendUvarint([]byte{2}, 4) // the v4 uniform-grid flag, U = 4
	quantized = floats(quantized, -3)               // the shared belief scale
	for _, code := range []uint16{21845, 54613, 65535, 32768} {
		quantized = binary.LittleEndian.AppendUint16(quantized, code)
	}
	raw := binary.AppendUvarint([]byte{1}, 2) // the raw float layout's flag, U = 2
	raw = binary.AppendUvarint(raw, 2)
	raw = floats(raw, 0, -1)
	counts := []byte{4, 2, 7, 1} // the flagged count layout, U = 2
	sectionU := []byte{7, 1}     // v6's unflagged count record (its head's U left out: nothing past the version is read)

	for _, c := range []struct {
		name   string
		ver    byte
		layout []byte
	}{
		{"v4 quantized", 4, quantized},
		{"v4 raw", 4, raw},
		{"v5 raw", 5, raw},
		{"v5 counts", 5, counts},
		{"v1 quantized", 1, quantized},
		{"v1 quantized window", 1, append([]byte{3}, quantized[1:]...)},
		{"v1 refined grid", 1, append([]byte{0}, raw[1:]...)},
		{"v1 raw", 1, raw},
		{"v1 counts", 1, counts},
		{"v6 section U", 6, sectionU},
	} {
		frame := handHeartbeat(c.ver, false, append([]byte{0, 2}, c.layout...)) // process 0 at distortion 1
		want := fmt.Sprintf("unsupported version %d", c.ver)
		for what, err := range decodeEverywhere(t, frame) {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: %s says %v, want an error naming %q", c.name, what, err, want)
			}
		}
	}
	f, err := Decode(handHeartbeat(version, false, handRecord([]uint64{0}, 1, 7, 1)))
	if err != nil {
		t.Fatalf("a record in a current heartbeat must decode: %v", err)
	}
	if got := f.Heartbeat.Procs[0].Est; got.Succ != 7 || got.Fail != 1 {
		t.Errorf("count record decoded as %+v", got)
	}
}

// TestV4DataFrameRejected: a data frame rides the current version and no
// other, so its header at versions 1–6 fails to decode.
func TestV4DataFrameRejected(t *testing.T) {
	b, err := Encode(&Frame{Kind: FrameData, Data: &DataMsg{Origin: 0, Seq: 1, Root: 0, Body: []byte("x")}})
	if err != nil {
		t.Fatal(err)
	}
	for ver := byte(1); ver < version; ver++ {
		forged := append([]byte(nil), b...)
		forged[1] = ver
		if _, err := Decode(forged); err == nil {
			t.Errorf("version-%d data frame should fail to decode", ver)
		}
	}
}

// TestNonCapsFramesStayLegacy keeps the name it had when a Caps field
// could lift a frame to version 5, and frames without one took the
// oldest of versions 1–3 their fields needed. Every seed shape now
// encodes at the one version.
func TestNonCapsFramesStayLegacy(t *testing.T) {
	for i, f := range seedFrames(t) {
		b, err := Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		if b[1] != version {
			t.Errorf("seed %d (kind %d) encoded at version %d, want %d", i, f.Kind, b[1], version)
		}
	}
}

// TestQuantizedSectionZeroAlloc extends the zero-alloc encode gate to
// the record section: cutting a section into a warm buffer and assembling
// a delta frame around a shared section allocate nothing.
func TestQuantizedSectionZeroAlloc(t *testing.T) {
	snap := paperSnapshot(t)
	buf := make([]byte, 0, 16384)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := AppendSnapshotSection(buf[:0], snap); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("section encode allocated %.1f times per op, want 0", allocs)
	}

	section, err := AppendSnapshotSection(buf, snap)
	if err != nil {
		t.Fatal(err)
	}
	d := &KnowledgeDelta{Since: 3, Ver: 5, Ack: 9, Cadence: 2, Epoch: 4}
	fbuf := make([]byte, 0, len(section)+256)
	allocs = testing.AllocsPerRun(100, func() {
		if _, err := AppendDeltaFrame(fbuf[:0], d, section); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("delta-frame assembly allocated %.1f times per op, want 0", allocs)
	}
}
