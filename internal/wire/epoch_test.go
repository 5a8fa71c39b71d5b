package wire

import (
	"bytes"
	"encoding/hex"
	"strings"
	"testing"

	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/topology"
)

// goldenFrames rebuilds the deterministic frames whose encodings were
// captured before epochs existed (wire v1/v2). goldenHex below is that
// capture; TestStaticFramesByteIdenticalToV2 pins the interop guarantee
// that an epoch-0 (static-cluster) frame still encodes to those headers.
func goldenFrames(tb testing.TB) []*Frame {
	tb.Helper()
	v, err := knowledge.NewView(1, 5, []topology.NodeID{0, 2}, nil, knowledge.Params{Intervals: 8})
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

// TestStaticFramesByteIdenticalToV2 is the acceptance-criteria interop
// test: frames of a static cluster (epoch 0) keep the pre-epoch wire
// format, stretched-cadence v2 deltas included. A data frame encodes
// byte-identically to the capture. The captured heartbeat and deltas
// carried their estimators in the retired raw float layout (flags 0x01),
// so they no longer decode; every byte before their first estimator — the
// header, the delta bookkeeping, the sender, the sequence, the first
// record's identity — is unchanged, and the first byte that differs is
// that estimator's flag.
func TestStaticFramesByteIdenticalToV2(t *testing.T) {
	frames := goldenFrames(t)
	if len(frames) != len(goldenHex) {
		t.Fatalf("%d golden frames, %d captures", len(frames), len(goldenHex))
	}
	for i, f := range frames {
		want, err := hex.DecodeString(goldenHex[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		if f.Kind == FrameData {
			if !bytes.Equal(got, want) {
				t.Errorf("golden frame %d drifted from the v2 encoding:\n got %x\nwant %x", i, got, want)
			}
			continue
		}
		if _, err := Decode(want); err == nil || !strings.Contains(err.Error(), "unknown estimator flags 0x1") {
			t.Errorf("golden frame %d: the raw-layout capture says %v, want the retired flag refused", i, err)
		}
		k := 0
		for k < len(got) && k < len(want) && got[k] == want[k] {
			k++
		}
		if k == len(got) || k == len(want) || got[k] != flagCounts || want[k] != 1 {
			t.Errorf("golden frame %d: first difference at byte %d is not the estimator flag:\n got %x\nwant %x", i, k, got, want)
		}
	}
}

// TestEpochVersionSelection pins the version-byte policy: the epoch costs
// nothing until it is nonzero.
func TestEpochVersionSelection(t *testing.T) {
	v, err := knowledge.NewView(0, 2, []topology.NodeID{1}, nil, knowledge.Params{Intervals: 4})
	if err != nil {
		t.Fatal(err)
	}
	v.BeginPeriod()
	snap := v.Snapshot()
	cases := []struct {
		name string
		f    *Frame
		ver  byte
	}{
		{"static data", &Frame{Kind: FrameData, Data: &DataMsg{Origin: 0, Seq: 1, Root: 0}}, 1},
		{"epoch data", &Frame{Kind: FrameData, Data: &DataMsg{Origin: 0, Seq: 1, Root: 0, Epoch: 2}}, 3},
		{"static delta", &Frame{Kind: FrameKnowledgeDelta, Delta: &KnowledgeDelta{Snap: snap}}, 1},
		{"stretched delta", &Frame{Kind: FrameKnowledgeDelta, Delta: &KnowledgeDelta{Snap: snap, Cadence: 4}}, 2},
		{"epoch delta", &Frame{Kind: FrameKnowledgeDelta, Delta: &KnowledgeDelta{Snap: snap, Cadence: 4, Epoch: 1}}, 3},
		{"join", &Frame{Kind: FrameJoin, Member: &Membership{Node: 2, Epoch: 1, NumProcs: 3, Neighbors: []topology.NodeID{0}}}, 3},
		{"leave", &Frame{Kind: FrameLeave, Member: &Membership{Node: 1, Epoch: 2, NumProcs: 3, Departed: []topology.NodeID{1}}}, 3},
	}
	for _, c := range cases {
		b, err := Encode(c.f)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if b[1] != c.ver {
			t.Errorf("%s: encoded as version %d, want %d", c.name, b[1], c.ver)
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
