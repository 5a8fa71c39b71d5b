package wire

import (
	"bytes"
	"testing"

	"adaptivecast/internal/optimize"
	"adaptivecast/internal/raceflag"
	"adaptivecast/internal/topology"
)

// treeFrame encodes a data frame carrying an n-process chain tree, the
// shape every copy of a planned broadcast has.
func treeFrame(tb testing.TB, n int, seq uint64, body string) []byte {
	tb.Helper()
	m := &DataMsg{Origin: 0, Seq: seq, Root: 0, Body: []byte(body),
		Parents: make([]topology.NodeID, n), AllocByNode: make([]int32, n)}
	m.Parents[0] = topology.None
	for v := 1; v < n; v++ {
		m.Parents[v] = topology.NodeID(v - 1)
		m.AllocByNode[v] = int32(1 + v%3)
	}
	b, err := Encode(&Frame{Kind: FrameData, Data: m})
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestScratchIsOverwrittenNotMerged: one Scratch decodes a large tree, a
// small tree, a flood and a heartbeat in turn; each result equals the
// fresh decode of the same bytes, with nothing left over from the frame
// before, and a rejected frame leaves the Scratch usable.
func TestScratchIsOverwrittenNotMerged(t *testing.T) {
	frames := [][]byte{treeFrame(t, 32, 1, "large"), treeFrame(t, 3, 2, "small")}
	for _, f := range seedFrames(t) {
		b, err := Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, b, treeFrame(t, 8, 9, "between"))
	}
	var sc Scratch
	for i, b := range frames {
		want, err := Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sc.DecodeBorrow(b)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !framesEqual(want, got) {
			t.Fatalf("frame %d through reused storage:\nwant %+v\ngot  %+v", i, want, got)
		}
		if got.Kind == FrameData && len(got.Data.Body) > 0 {
			if at := bytes.Index(b, got.Data.Body); at < 0 || &b[at] != &got.Data.Body[0] {
				t.Fatalf("frame %d: the borrowed body does not alias the input", i)
			}
		}
		if _, err := sc.DecodeBorrow(b[:len(b)-1]); err == nil {
			t.Fatalf("frame %d: truncated input accepted", i)
		}
	}
}

// TestAllocsDecodeData pins where the receive path's allocations went: a
// data frame decoded into reused storage allocates nothing, and the
// fresh-storage wrappers still cost one object per part of the message
// (Frame, DataMsg, Parents, AllocByNode — and the body copy for Decode).
func TestAllocsDecodeData(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation pins do not hold under the race detector")
	}
	b := treeFrame(t, 32, 7, "payload of a broadcast")
	var sc Scratch
	for _, c := range []struct {
		name   string
		decode func([]byte) (*Frame, error)
		want   float64
	}{
		{"Scratch.DecodeBorrow", sc.DecodeBorrow, 0},
		{"DecodeBorrow", DecodeBorrow, 4},
		{"Decode", Decode, 5},
	} {
		got := testing.AllocsPerRun(200, func() {
			if _, err := c.decode(b); err != nil {
				t.Fatal(err)
			}
		})
		if got != c.want {
			t.Errorf("%s of a data frame allocated %.1f times per op, want %.0f", c.name, got, c.want)
		}
	}
}

// TestForgedAllocationMustNotDecode: an AllocByNode entry is a number of
// sends a relay will make toward one child, so an entry past the
// allocator's own ceiling (one frame → 2³¹ enqueues) or below zero (a
// negative attempted count hides "all forwards failed") must not decode —
// fresh, borrowed, or into storage a valid frame just used — and Encode
// must refuse to produce it.
func TestForgedAllocationMustNotDecode(t *testing.T) {
	var sc Scratch
	for _, forged := range []int32{MaxAllocation + 1, 1<<31 - 1, -1, -1 << 31} {
		m := &DataMsg{Origin: 0, Seq: 1, Root: 0, Body: []byte("x"),
			Parents:     []topology.NodeID{topology.None, 0, 1},
			AllocByNode: []int32{0, 1, forged}}
		f := &Frame{Kind: FrameData, Data: m}
		if _, err := Encode(f); err == nil {
			t.Errorf("Encode accepted allocation %d", forged)
		}
		b, err := encodeBinary(f) // what a forger puts on the wire
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sc.DecodeBorrow(treeFrame(t, 8, 3, "dirty")); err != nil {
			t.Fatal(err)
		}
		for name, decode := range map[string]func([]byte) (*Frame, error){
			"Decode": Decode, "DecodeBorrow": DecodeBorrow, "Scratch.DecodeBorrow": sc.DecodeBorrow,
		} {
			if _, err := decode(b); err == nil {
				t.Errorf("%s accepted allocation %d", name, forged)
			}
		}
	}
	m := &DataMsg{Origin: 0, Seq: 1, Root: 0, Parents: []topology.NodeID{topology.None, 0}, AllocByNode: []int32{0, MaxAllocation}}
	b, err := Encode(&Frame{Kind: FrameData, Data: m})
	if err != nil {
		t.Fatalf("the allocator's ceiling itself must encode: %v", err)
	}
	if _, err := Decode(b); err != nil {
		t.Fatalf("the allocator's ceiling itself must decode: %v", err)
	}
	if MaxAllocation != optimize.DefaultMaxTotal {
		t.Errorf("MaxAllocation = %d no longer restates optimize.DefaultMaxTotal = %d", MaxAllocation, optimize.DefaultMaxTotal)
	}
}
