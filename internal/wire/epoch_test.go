package wire

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/topology"
)

// goldenFrames rebuilds the deterministic frames whose encodings were
// captured before epochs existed (wire v1/v2); goldenHex below is that
// capture.
func goldenFrames(tb testing.TB) []*Frame {
	tb.Helper()
	v, err := knowledge.NewView(1, 5, []topology.NodeID{0, 2}, nil, knowledge.Params{})
	if err != nil {
		tb.Fatal(err)
	}
	v.BeginPeriod()
	snap := v.Snapshot()
	baseVer := v.Version()
	v.BeginPeriod()
	delta, ok := v.DeltaSince(baseVer)
	if !ok {
		tb.Fatal("golden delta not anchorable")
	}
	return []*Frame{
		{Kind: FrameHeartbeat, Heartbeat: snap},
		{Kind: FrameData, Data: &DataMsg{Origin: 2, Seq: 7, Root: 2, Body: []byte("payload")}},
		{Kind: FrameKnowledgeDelta, Delta: &KnowledgeDelta{Snap: delta, Since: baseVer, Ver: v.Version(), Ack: 9}},
		{Kind: FrameKnowledgeDelta, Delta: &KnowledgeDelta{Snap: delta, Since: baseVer, Ver: v.Version(), Ack: 9, Cadence: 8}},
	}
}

// goldenHex was emitted by the wire v2 encoder (PR 4 era), before the
// Epoch field and the membership kinds existed.
var goldenHex = []string{
	"ac010102010102000108080000000000000000e0bcbbe12051c2bf9a86700e94d9d3bf511481faae58e0bfcd6bd0887363e8bf0b03ad7aea93f1bf348dedf741c0f9bf1f484d3916aa05c0020002000108080000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000002040001080800000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
	"ac01020407040000077061796c6f616400",
	"ac010301020902020102000108080000000000000000e0bcbbe12051d2bf9a86700e94d9e3bf521481faae58f0bfce6bd0887363f8bf0b03ad7aea9301c0348dedf741c009c01f484d3916aa15c000",
	"ac02030102090802020102000108080000000000000000e0bcbbe12051d2bf9a86700e94d9e3bf521481faae58f0bfce6bd0887363f8bf0b03ad7aea9301c0348dedf741c009c01f484d3916aa15c000",
}

// TestStaticFramesByteIdenticalToV2 keeps the name it had when static
// frames still encoded as v1/v2. Those headers are retired: the v1/v2
// captures above and every committed v1–v3 frame of the corpus (the
// retired seeds) must fail as unsupported versions — fresh, borrowed and
// through a used Scratch — and never parse as something else. The frames
// the captures came from encode at the current version and round-trip.
func TestStaticFramesByteIdenticalToV2(t *testing.T) {
	frames := goldenFrames(t)
	if len(frames) != len(goldenHex) {
		t.Fatalf("%d golden frames, %d captures", len(frames), len(goldenHex))
	}
	captures := map[string][]byte{}
	for i, h := range goldenHex {
		b, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		captures[fmt.Sprintf("golden frame %d", i)] = b
		got, err := Encode(frames[i])
		if err != nil {
			t.Fatal(err)
		}
		if f, err := Decode(got); got[1] != version || err != nil || !framesEqual(f, frames[i]) {
			t.Errorf("golden frame %d encodes at version %d and decodes to %+v, %v", i, got[1], f, err)
		}
	}
	seeds, err := CorpusSeeds()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range seeds {
		if strings.HasPrefix(s.Name, retiredPrefix) && len(s.Data) >= headerSize && s.Data[1] <= 3 {
			captures[s.Name] = s.Data
		}
	}
	// retired-10 to -16, -22 to -39 and -40 to -43 (see corpus_test.go).
	if want := len(goldenHex) + 7 + 18 + 4; len(captures) != want {
		t.Errorf("%d v1–v3 captures, want %d: the golden frames and 29 retired seeds", len(captures), want)
	}
	for name, b := range captures {
		want := fmt.Sprintf("unsupported version %d", b[1])
		for what, err := range decodeEverywhere(t, b) {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: %s says %v, want %q", name, what, err, want)
			}
		}
	}
}

// TestEpochVersionSelection keeps the name it had when the version byte
// followed the epoch: every kind, at epoch 0 or not and at any cadence,
// now encodes at the one version and round-trips.
func TestEpochVersionSelection(t *testing.T) {
	v, err := knowledge.NewView(0, 2, []topology.NodeID{1}, nil, knowledge.Params{})
	if err != nil {
		t.Fatal(err)
	}
	v.BeginPeriod()
	snap := v.Snapshot()
	cases := []struct {
		name string
		f    *Frame
	}{
		{"static data", &Frame{Kind: FrameData, Data: &DataMsg{Origin: 0, Seq: 1, Root: 0}}},
		{"epoch data", &Frame{Kind: FrameData, Data: &DataMsg{Origin: 0, Seq: 1, Root: 0, Epoch: 2}}},
		{"static delta", &Frame{Kind: FrameKnowledgeDelta, Delta: &KnowledgeDelta{Snap: snap}}},
		{"stretched delta", &Frame{Kind: FrameKnowledgeDelta, Delta: &KnowledgeDelta{Snap: snap, Cadence: 4}}},
		{"epoch delta", &Frame{Kind: FrameKnowledgeDelta, Delta: &KnowledgeDelta{Snap: snap, Cadence: 4, Epoch: 1}}},
		{"join", &Frame{Kind: FrameJoin, Member: &Membership{Node: 2, Epoch: 1, NumProcs: 3, Neighbors: []topology.NodeID{0}}}},
		{"leave", &Frame{Kind: FrameLeave, Member: &Membership{Node: 1, Epoch: 2, NumProcs: 3, Departed: []topology.NodeID{1}}}},
	}
	for _, c := range cases {
		b, err := Encode(c.f)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if b[1] != version {
			t.Errorf("%s: encoded as version %d, want %d", c.name, b[1], version)
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("%s: decode: %v", c.name, err)
		}
		if !framesEqual(c.f, got) {
			t.Errorf("%s: round-trip drift", c.name)
		}
	}
}

// TestMembershipValidation rejects malformed join/leave payloads.
func TestMembershipValidation(t *testing.T) {
	bad := []*Frame{
		{Kind: FrameJoin},
		{Kind: FrameJoin, Member: &Membership{Node: 0, Epoch: 0, NumProcs: 1}},
		{Kind: FrameJoin, Member: &Membership{Node: 3, Epoch: 1, NumProcs: 3}},
		{Kind: FrameJoin, Member: &Membership{Node: 2, Epoch: 1, NumProcs: 3, Departed: []topology.NodeID{7}}},
		{Kind: FrameJoin, Member: &Membership{Node: 2, Epoch: 1, NumProcs: 3, Neighbors: []topology.NodeID{2}}},
		{Kind: FrameJoin, Member: &Membership{Node: 2, Epoch: 1, NumProcs: 3, Departed: []topology.NodeID{2}}},
		{Kind: FrameLeave, Member: &Membership{Node: 1, Epoch: 1, NumProcs: 3, Neighbors: []topology.NodeID{0}}},
	}
	for i, f := range bad {
		if _, err := Encode(f); err == nil {
			t.Errorf("bad membership frame %d encoded without error", i)
		}
	}
}

// TestDecodeBorrowAliasesBody pins the zero-copy contract: DecodeBorrow's
// body aliases the input buffer (no allocation), Decode's does not.
func TestDecodeBorrowAliasesBody(t *testing.T) {
	f := &Frame{Kind: FrameData, Data: &DataMsg{Origin: 1, Seq: 2, Root: 1, Body: []byte("zero-copy body"), Epoch: 3}}
	b, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}

	borrowed, err := DecodeBorrow(b)
	if err != nil {
		t.Fatal(err)
	}
	if !framesEqual(f, borrowed) {
		t.Fatal("borrow decode drifted")
	}
	copied, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}

	// Mutating the input buffer must show through the borrowed body and
	// not through the copied one.
	for i := range b {
		b[i] ^= 0xFF
	}
	if bytes.Equal(borrowed.Data.Body, f.Data.Body) {
		t.Error("DecodeBorrow body did not alias the input buffer")
	}
	if !bytes.Equal(copied.Data.Body, f.Data.Body) {
		t.Error("Decode body aliased the input buffer")
	}
}
