package wire

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"testing"

	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/topology"
)

func heartbeatSnapshot(t *testing.T) *knowledge.Snapshot {
	t.Helper()
	v, err := knowledge.NewView(1, 4, []topology.NodeID{0, 2}, nil, knowledge.Params{Intervals: 10})
	if err != nil {
		t.Fatal(err)
	}
	v.BeginPeriod()
	return v.Snapshot()
}

func TestHeartbeatRoundTrip(t *testing.T) {
	snap := heartbeatSnapshot(t)
	b, err := Encode(&Frame{Kind: FrameHeartbeat, Heartbeat: snap})
	if err != nil {
		t.Fatal(err)
	}
	f, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != FrameHeartbeat || f.Heartbeat == nil {
		t.Fatal("frame shape lost")
	}
	if f.Heartbeat.From != 1 || f.Heartbeat.Seq != 1 {
		t.Errorf("header lost: %+v", f.Heartbeat)
	}
	if len(f.Heartbeat.Procs) != len(snap.Procs) || len(f.Heartbeat.Links) != len(snap.Links) {
		t.Errorf("payload lost: %d procs %d links", len(f.Heartbeat.Procs), len(f.Heartbeat.Links))
	}
	// The decoded snapshot merges cleanly into another view.
	other, err := knowledge.NewView(0, 4, []topology.NodeID{1}, nil, knowledge.Params{Intervals: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.MergeSnapshot(f.Heartbeat); err != nil {
		t.Fatal(err)
	}
	if _, d := other.CrashEstimate(1); d != 1 {
		t.Errorf("merged distortion = %d, want 1", d)
	}
}

func TestDataRoundTrip(t *testing.T) {
	msg := &DataMsg{
		Origin:      2,
		Seq:         7,
		Root:        2,
		Parents:     []topology.NodeID{2, 0, topology.None},
		AllocByNode: []int32{3, 1, 0},
		Body:        []byte("payload"),
	}
	b, err := Encode(&Frame{Kind: FrameData, Data: msg})
	if err != nil {
		t.Fatal(err)
	}
	f, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	got := f.Data
	if got.Origin != 2 || got.Seq != 7 || got.Root != 2 || string(got.Body) != "payload" {
		t.Errorf("data lost: %+v", got)
	}
	if len(got.Parents) != 3 || got.Parents[2] != topology.None {
		t.Errorf("parents lost: %v", got.Parents)
	}
	if len(got.AllocByNode) != 3 || got.AllocByNode[0] != 3 {
		t.Errorf("alloc lost: %v", got.AllocByNode)
	}
}

func TestFloodedDataHasNoTree(t *testing.T) {
	msg := &DataMsg{Origin: 0, Seq: 1, Root: 0, Body: []byte("x")}
	b, err := Encode(&Frame{Kind: FrameData, Data: msg})
	if err != nil {
		t.Fatal(err)
	}
	f, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Data.Parents) != 0 {
		t.Errorf("flooded message grew a tree: %v", f.Data.Parents)
	}
}

func TestValidation(t *testing.T) {
	cases := []struct {
		name  string
		frame *Frame
	}{
		{"nil", nil},
		{"unknown kind", &Frame{Kind: 99}},
		{"heartbeat without payload", &Frame{Kind: FrameHeartbeat}},
		{"heartbeat with data", &Frame{Kind: FrameHeartbeat, Heartbeat: &knowledge.Snapshot{}, Data: &DataMsg{}}},
		{"data without payload", &Frame{Kind: FrameData}},
		{"data with heartbeat", &Frame{Kind: FrameData, Data: &DataMsg{}, Heartbeat: &knowledge.Snapshot{}}},
		{"alloc mismatch", &Frame{Kind: FrameData, Data: &DataMsg{
			Parents:     []topology.NodeID{topology.None, 0},
			AllocByNode: []int32{0},
		}}},
	}
	for _, c := range cases {
		if _, err := Encode(c.frame); err == nil {
			t.Errorf("%s: Encode should fail", c.name)
		}
	}
	if _, err := Decode([]byte("not a frame")); err == nil {
		t.Error("garbage should fail to decode")
	}
	if _, err := Encode(&Frame{Kind: FrameData, Data: &DataMsg{Origin: 1}}); err == nil {
		t.Error("data frame with reserved sequence 0 should fail to encode")
	}
}

// TestDecodeRejectsTrailingBytes pins the framing invariant that a frame
// consumes its buffer exactly (length-prefixed transports deliver exact
// frames; trailing garbage means corruption).
func TestDecodeRejectsTrailingBytes(t *testing.T) {
	b, err := Encode(&Frame{Kind: FrameData, Data: &DataMsg{Origin: 0, Seq: 1, Root: 0, Body: []byte("x")}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(append(b, 0x00)); err == nil {
		t.Error("trailing byte should fail to decode")
	}
	for cut := 1; cut < len(b); cut++ {
		if _, err := Decode(b[:cut]); err == nil {
			t.Errorf("truncation at %d should fail to decode", cut)
		}
	}
}

// TestRefinedGridRoundTrip keeps the name it had when refined grids had
// a layout of their own. It covers the slow path that remains: an
// estimate adopted from a raw log-belief vector rides the raw layout, in
// a count frame as in a raw one, and round-trips.
func TestRefinedGridRoundTrip(t *testing.T) {
	snap := rawPriorSnapshot(t)
	for _, caps := range []uint64{0, CapsCounts} {
		want := &Frame{Kind: FrameHeartbeat, Heartbeat: snap, Caps: caps}
		b, err := Encode(want)
		if err != nil {
			t.Fatal(err)
		}
		f, err := Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		if !framesEqual(want, f) {
			t.Fatalf("caps %d: raw-prior snapshot did not round-trip", caps)
		}
	}
}

// EncodeGob serializes a frame with the stdlib-gob codec the binary
// format replaced, kept as the baseline the codec benchmarks and
// TestGobCompat measure against.
func EncodeGob(f *Frame) ([]byte, error) {
	if err := validate(f); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(f); err != nil {
		return nil, fmt.Errorf("wire: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeGob parses an EncodeGob frame.
func DecodeGob(b []byte) (*Frame, error) {
	var f Frame
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&f); err != nil {
		return nil, fmt.Errorf("wire: decode: %w", err)
	}
	if err := validate(&f); err != nil {
		return nil, err
	}
	return &f, nil
}

// TestGobCompat keeps the gob baseline honest: both codecs must accept
// the same frames, and the binary encoding must be strictly smaller for
// every frame kind.
func TestGobCompat(t *testing.T) {
	for _, frame := range seedFrames(t) {
		gobBytes, err := EncodeGob(frame)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeGob(gobBytes)
		if err != nil {
			t.Fatal(err)
		}
		if !framesEqual(frame, back) {
			t.Fatalf("gob round-trip drift for kind %d", frame.Kind)
		}
		binBytes, err := Encode(frame)
		if err != nil {
			t.Fatal(err)
		}
		if len(binBytes) >= len(gobBytes) {
			t.Errorf("kind %d: binary frame is %dB, gob is %dB — binary must be smaller",
				frame.Kind, len(binBytes), len(gobBytes))
		}
		t.Logf("kind %d: binary %dB vs gob %dB (%.0f%% smaller)",
			frame.Kind, len(binBytes), len(gobBytes),
			100*(1-float64(len(binBytes))/float64(len(gobBytes))))
	}
}

// TestDeltaValidate pins the well-formedness rules of the knowledge-delta
// frame kind in both codec directions.
func TestDeltaValidate(t *testing.T) {
	snap := &knowledge.Snapshot{From: 1, Seq: 3}
	good := &Frame{Kind: FrameKnowledgeDelta, Delta: &KnowledgeDelta{Snap: snap, Since: 2, Ver: 5, Ack: 7}}
	b, err := Encode(good)
	if err != nil {
		t.Fatalf("well-formed delta rejected: %v", err)
	}
	f, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if f.Delta.Since != 2 || f.Delta.Ver != 5 || f.Delta.Ack != 7 {
		t.Fatalf("delta bookkeeping drifted: %+v", f.Delta)
	}

	bad := []*Frame{
		{Kind: FrameKnowledgeDelta},                                                       // no payload
		{Kind: FrameKnowledgeDelta, Delta: &KnowledgeDelta{}},                             // nil record set
		{Kind: FrameKnowledgeDelta, Delta: &KnowledgeDelta{Snap: snap, Since: 6, Ver: 5}}, // base ahead of version
		{Kind: FrameKnowledgeDelta, Delta: &KnowledgeDelta{Snap: snap}, Heartbeat: snap},  // payload mismatch
		{Kind: FrameKnowledgeDelta, Delta: &KnowledgeDelta{Snap: snap, Ver: 2,
			Cadence: MaxCadence + 1}}, // cadence beyond the suspicion-scaling bound
	}
	for i, f := range bad {
		if _, err := Encode(f); err == nil {
			t.Errorf("malformed delta %d accepted", i)
		}
	}
}

// TestCadenceWireVersioning pins the adaptive-cadence wire contract: an
// unstretched delta (Cadence absent, 0 or 1) must stay a byte-identical
// version-1 frame — what pre-cadence peers emit and decode — while a
// stretched delta rides a version-2 frame that round-trips its cadence.
func TestCadenceWireVersioning(t *testing.T) {
	snap := &knowledge.Snapshot{From: 1, Seq: 3}
	base := &Frame{Kind: FrameKnowledgeDelta, Delta: &KnowledgeDelta{Snap: snap, Since: 2, Ver: 5, Ack: 7}}
	v1, err := Encode(base)
	if err != nil {
		t.Fatal(err)
	}
	if v1[1] != 1 {
		t.Fatalf("unstretched delta encoded as wire version %d, want 1", v1[1])
	}
	one := &Frame{Kind: FrameKnowledgeDelta, Delta: &KnowledgeDelta{Snap: snap, Since: 2, Ver: 5, Ack: 7, Cadence: 1}}
	if b, err := Encode(one); err != nil {
		t.Fatal(err)
	} else if !bytes.Equal(b, v1) {
		t.Errorf("cadence-1 delta not byte-identical to the pre-cadence layout:\n%x\n%x", b, v1)
	}

	stretched := &Frame{Kind: FrameKnowledgeDelta, Delta: &KnowledgeDelta{Snap: snap, Since: 2, Ver: 5, Ack: 7, Cadence: 8}}
	v2, err := Encode(stretched)
	if err != nil {
		t.Fatal(err)
	}
	if v2[1] != 2 {
		t.Fatalf("stretched delta encoded as wire version %d, want 2", v2[1])
	}
	got, err := Decode(v2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Delta.Cadence != 8 || got.Delta.Since != 2 || got.Delta.Ver != 5 || got.Delta.Ack != 7 {
		t.Fatalf("stretched delta drifted: %+v", got.Delta)
	}
	// And the v1 frame decodes with the implied classic cadence.
	got1, err := Decode(v1)
	if err != nil {
		t.Fatal(err)
	}
	if got1.Delta.Cadence != 1 {
		t.Errorf("v1 delta decoded with cadence %d, want implied 1", got1.Delta.Cadence)
	}
}
