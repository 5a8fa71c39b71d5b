package main

import (
	"testing"

	"adaptivecast"
	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/wire"
)

// TestTapParsesDataHeader pins the two wire-layout facts the tap relies
// on — the kind byte and the (origin, seq) prefix of a data payload —
// against the real encoder.
func TestTapParsesDataHeader(t *testing.T) {
	for _, tc := range []struct {
		origin adaptivecast.NodeID
		seq    uint64
		epoch  uint64
	}{{0, 1, 0}, {7, 300, 0}, {127, 1 << 40, 0}, {5, 9, 3}} {
		frame, err := wire.Encode(&wire.Frame{Kind: wire.FrameData, Data: &wire.DataMsg{
			Origin: tc.origin, Seq: tc.seq, Root: tc.origin,
			Parents: []adaptivecast.NodeID{-1, 0}, AllocByNode: []int32{0, 2},
			Body: []byte("payload"), Epoch: tc.epoch,
		}})
		if err != nil {
			t.Fatal(err)
		}
		k, origin, seq := classify(frame)
		if k != kindData || origin != int(tc.origin) || seq != tc.seq {
			t.Fatalf("classify(data %d/%d) = %v %d %d", tc.origin, tc.seq, k, origin, seq)
		}
	}
	hb, err := wire.Encode(&wire.Frame{Kind: wire.FrameKnowledgeDelta,
		Delta: &wire.KnowledgeDelta{Snap: &knowledge.Snapshot{From: 3, Seq: 5}, Ver: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if k, _, _ := classify(hb); k != kindHB {
		t.Fatalf("classify(delta) = %v, want hb", k)
	}
}
