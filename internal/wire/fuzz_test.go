package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"adaptivecast/internal/bayes"
	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/topology"
)

// seedFrames builds one representative frame of every shape the runtime
// produces; they seed the fuzz corpus (alongside the committed files under
// testdata/fuzz) and anchor the round-trip property test.
func seedFrames(tb testing.TB) []*Frame {
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
		tb.Fatal("seed delta not anchorable")
	}
	empty, ok := v.DeltaSince(v.Version())
	if !ok || len(empty.Procs)+len(empty.Links) != 0 {
		tb.Fatal("steady-state delta not empty")
	}
	return []*Frame{
		{Kind: FrameHeartbeat, Heartbeat: snap},
		{Kind: FrameData, Data: &DataMsg{Origin: 2, Seq: 7, Root: 2, Body: []byte("payload")}},
		{Kind: FrameData, Data: &DataMsg{
			Origin:      0,
			Seq:         1,
			Root:        0,
			Parents:     []topology.NodeID{topology.None, 0, 0},
			AllocByNode: []int32{0, 2, 1},
			Body:        []byte("tree"),
			Piggyback:   snap,
		}},
		// A real partial delta and the full-snapshot fallback form
		// (Since == 0), so the new frame kind inherits the never-panic
		// and round-trip invariants.
		{Kind: FrameKnowledgeDelta, Delta: &KnowledgeDelta{Snap: delta, Since: baseVer, Ver: v.Version(), Ack: 9}},
		{Kind: FrameKnowledgeDelta, Delta: &KnowledgeDelta{Snap: v.Snapshot(), Since: 0, Ver: v.Version(), Ack: 0}},
		// A stretched-cadence delta: encodes as wire version 2.
		{Kind: FrameKnowledgeDelta, Delta: &KnowledgeDelta{Snap: delta, Since: baseVer, Ver: v.Version(), Ack: 9, Cadence: 8}},
		// Epoch-tagged data and delta frames (wire version 3), including a
		// tombstoned slot in the parent vector, and the membership kinds.
		{Kind: FrameData, Data: &DataMsg{
			Origin:  2,
			Seq:     3,
			Root:    2,
			Parents: []topology.NodeID{topology.None, topology.None, topology.None, 2},
			// node 0 departed (tombstoned slot), node 3 joined under root 2
			AllocByNode: []int32{0, 0, 0, 1},
			Body:        []byte("epoch"),
			Epoch:       4,
		}},
		{Kind: FrameKnowledgeDelta, Delta: &KnowledgeDelta{Snap: delta, Since: baseVer, Ver: v.Version(), Ack: 9, Cadence: 2, Epoch: 4}},
		{Kind: FrameJoin, Member: &Membership{Node: 5, Epoch: 3, NumProcs: 6, Departed: []topology.NodeID{1}, Neighbors: []topology.NodeID{0, 2}}},
		{Kind: FrameLeave, Member: &Membership{Node: 1, Epoch: 4, NumProcs: 6, Departed: []topology.NodeID{1, 3}}},
		// Empty lists and optional sections inside the newer layouts: the
		// first join into a static cluster (nothing departed), an
		// epoch-tagged data frame carrying a piggyback, a v5 heartbeat
		// around a raw-prior snapshot (the raw fallback outside a delta),
		// and a converged delta with no records, which takes the oldest
		// header that fits (v2 for its stretched cadence).
		{Kind: FrameJoin, Member: &Membership{Node: 4, Epoch: 1, NumProcs: 5, Neighbors: []topology.NodeID{0}}},
		{Kind: FrameData, Data: &DataMsg{
			Origin:      0,
			Seq:         2,
			Root:        0,
			Parents:     []topology.NodeID{topology.None, 0, 0},
			AllocByNode: []int32{0, 1, 1},
			Body:        []byte("epoch tree"),
			Piggyback:   snap,
			Epoch:       4,
		}},
		{Kind: FrameHeartbeat, Heartbeat: rawPriorSnapshot(tb), Caps: CapsCounts},
		{Kind: FrameKnowledgeDelta, Delta: &KnowledgeDelta{Snap: empty, Since: v.Version(), Ver: v.Version(), Ack: 9, Cadence: 4}},
		// Wire v5: frames carrying Caps, whose snapshots ship evidence
		// counts (flagCounts). The raw-prior snapshot pins the raw fallback
		// inside a v5 frame.
		{Kind: FrameKnowledgeDelta,
			Delta: &KnowledgeDelta{Snap: delta, Since: baseVer, Ver: v.Version(), Ack: 9, Cadence: 2, Epoch: 4, Caps: CapsCounts}},
		{Kind: FrameKnowledgeDelta,
			Delta: &KnowledgeDelta{Snap: v.Snapshot(), Since: 0, Ver: v.Version(), Caps: CapsCounts}},
		{Kind: FrameKnowledgeDelta,
			Delta: &KnowledgeDelta{Snap: rawPriorSnapshot(tb), Since: 0, Ver: 1, Caps: CapsCounts}},
		{Kind: FrameHeartbeat, Heartbeat: snap, Caps: CapsCounts},
	}
}

// rawPriorSnapshot builds a snapshot holding an estimate the view adopted
// from a raw log-belief vector, as a piggybacked data frame delivers one,
// with evidence observed on top: its prior is no uniform one, so no count
// record can describe it.
func rawPriorSnapshot(tb testing.TB) *knowledge.Snapshot {
	tb.Helper()
	v, err := knowledge.NewView(0, 3, []topology.NodeID{1}, nil, knowledge.Params{Intervals: 10})
	if err != nil {
		tb.Fatal(err)
	}
	raw := bayes.State{Intervals: 10, LogBeliefs: []float64{-2, -1, 0, -0.5, -1, -2, -3, -4, -5, -6}}
	if err := v.MergeSnapshotKnowledgeOnly(&knowledge.Snapshot{From: 1, Seq: 1,
		Procs: []knowledge.ProcRecord{{ID: 1, Dist: 0, Est: raw}}}); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		v.BeginPeriod() // the silent neighbour's suspicion books a failure on top
	}
	snap := v.Snapshot()
	for _, pr := range snap.Procs {
		if !pr.Est.IsCounts() {
			return snap
		}
	}
	tb.Fatal("fixture holds no raw-prior estimate")
	return nil
}

func nodeIDsEqual(a, b []topology.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// floatsEqual compares float vectors bit-for-bit (NaNs compare equal to
// themselves so arbitrary decoded floats still round-trip).
func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// statesEqual compares estimator states by what they denote: the same
// interval count and, bit for bit, the same materialized log-belief
// vector. A count state and the raw vector it encodes to are equal; two
// different evidence counts are not.
func statesEqual(a, b *bayes.State) bool {
	return a.Intervals == b.Intervals && floatsEqual(a.AppendLogBeliefs(nil), b.AppendLogBeliefs(nil))
}

func snapshotsEqual(a, b *knowledge.Snapshot) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.From != b.From || a.Seq != b.Seq ||
		len(a.Procs) != len(b.Procs) || len(a.Links) != len(b.Links) {
		return false
	}
	for i := range a.Procs {
		x, y := &a.Procs[i], &b.Procs[i]
		if x.ID != y.ID || x.Dist != y.Dist || !statesEqual(&x.Est, &y.Est) {
			return false
		}
	}
	for i := range a.Links {
		x, y := &a.Links[i], &b.Links[i]
		if x.Link != y.Link || x.Dist != y.Dist || !statesEqual(&x.Est, &y.Est) {
			return false
		}
	}
	return true
}

func framesEqual(a, b *Frame) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case FrameHeartbeat:
		return a.Caps == b.Caps && snapshotsEqual(a.Heartbeat, b.Heartbeat)
	case FrameKnowledgeDelta:
		// Cadence 0 and 1 are the same declaration (one frame per δ), so
		// they compare equal across a round-trip.
		normCad := func(c uint64) uint64 {
			if c == 0 {
				return 1
			}
			return c
		}
		return a.Delta.Since == b.Delta.Since && a.Delta.Ver == b.Delta.Ver &&
			a.Delta.Ack == b.Delta.Ack && normCad(a.Delta.Cadence) == normCad(b.Delta.Cadence) &&
			a.Delta.Epoch == b.Delta.Epoch && a.Delta.Caps == b.Delta.Caps &&
			snapshotsEqual(a.Delta.Snap, b.Delta.Snap)
	case FrameData:
		x, y := a.Data, b.Data
		if x.Origin != y.Origin || x.Seq != y.Seq || x.Root != y.Root ||
			x.Epoch != y.Epoch || !bytes.Equal(x.Body, y.Body) ||
			!nodeIDsEqual(x.Parents, y.Parents) {
			return false
		}
		if len(x.AllocByNode) != len(y.AllocByNode) {
			return false
		}
		for i := range x.AllocByNode {
			if x.AllocByNode[i] != y.AllocByNode[i] {
				return false
			}
		}
		return snapshotsEqual(x.Piggyback, y.Piggyback)
	case FrameJoin, FrameLeave:
		x, y := a.Member, b.Member
		return x.Node == y.Node && x.Epoch == y.Epoch && x.NumProcs == y.NumProcs &&
			nodeIDsEqual(x.Departed, y.Departed) && nodeIDsEqual(x.Neighbors, y.Neighbors)
	}
	return false
}

// FuzzDecode is the codec's safety net: Decode must never panic on
// arbitrary bytes, and any frame it accepts must re-encode and re-decode
// to an identical frame (Decode(Encode(f)) round-trips). A Scratch still
// holding whatever the previous input left in it must accept exactly the
// same inputs and decode them to the same frame.
func FuzzDecode(f *testing.F) {
	var sc Scratch
	for _, frame := range seedFrames(f) {
		b, err := Encode(frame)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{magic})
	f.Add([]byte{magic, version, byte(FrameData)})
	f.Add([]byte{magic, version, byte(FrameHeartbeat), 0xff, 0xff, 0xff})
	// Headers the decoder refuses: a kind at a version it never rides, and
	// the retired v4.
	f.Add([]byte{magic, version2, byte(FrameHeartbeat), 2, 1, 0, 0})
	f.Add([]byte{magic, 4, byte(FrameKnowledgeDelta)})
	f.Fuzz(func(t *testing.T, data []byte) {
		frame, err := Decode(data)
		reused, serr := sc.DecodeBorrow(data)
		if (err == nil) != (serr == nil) {
			t.Fatalf("fresh decode says %v, reused storage says %v", err, serr)
		}
		if err != nil {
			return // malformed input rejected without panicking: fine
		}
		if !framesEqual(frame, reused) {
			t.Fatalf("reused storage drift:\nfresh:  %+v\nreused: %+v", frame, reused)
		}
		reencoded, err := Encode(frame)
		if err != nil {
			t.Fatalf("decoded frame failed to re-encode: %v", err)
		}
		again, err := Decode(reencoded)
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		if !framesEqual(frame, again) {
			t.Fatalf("round-trip drift:\nfirst:  %+v\nsecond: %+v", frame, again)
		}
	})
}

// TestEncodeDecodeRoundTrip pins the round-trip property on the seed
// frames outside the fuzz engine, so `go test` alone covers it.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, frame := range seedFrames(t) {
		b, err := Encode(frame)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		if !framesEqual(frame, got) {
			t.Fatalf("round-trip drift: %+v vs %+v", frame, got)
		}
	}
}

// handHeartbeat assembles, byte by byte, a heartbeat whose snapshot holds
// one process record with the given encoded estimator — for layouts and
// values no encoder emits. A v4 or v5 header advertises its own version
// as caps.
func handHeartbeat(ver byte, estimator []byte) []byte {
	b := []byte{magic, ver, byte(FrameHeartbeat)}
	if ver >= 4 {
		b = binary.AppendUvarint(b, uint64(ver)) // caps
	}
	b = binary.AppendVarint(b, 1)  // from
	b = binary.AppendUvarint(b, 1) // seq
	b = binary.AppendUvarint(b, 1) // one proc record
	b = binary.AppendVarint(b, 0)  // id
	b = binary.AppendVarint(b, 1)  // dist
	b = append(b, estimator...)
	return binary.AppendUvarint(b, 0) // no link records
}

// forgedCount is a hostile evidence-count heartbeat and why it must not
// decode.
type forgedCount struct {
	name  string
	frame []byte
}

// forgedCountFrames hand-assembles heartbeats around one count record
// that no encoder would emit: the record is five-odd bytes whatever it
// declares, so only the decoder's own bounds stand between a forged
// U = 2^40 and the grid it would size. They are committed to the fuzz
// corpus as the forged-N files (TestWriteSeedCorpus).
func forgedCountFrames() []forgedCount {
	heartbeat := func(ver byte, u, succ, fail uint64) []byte {
		est := []byte{flagCounts}
		est = binary.AppendUvarint(est, u)
		est = binary.AppendUvarint(est, succ)
		return handHeartbeat(ver, binary.AppendUvarint(est, fail))
	}
	return []forgedCount{
		{"oversize U", heartbeat(version5, 1<<40, 3, 1)},
		{"U just past the bound", heartbeat(version5, MaxIntervals+1, 3, 1)},
		{"success count overflow", heartbeat(version5, 100, math.MaxUint64, 0)},
		{"evidence sum past the bound", heartbeat(version5, 100, MaxEvidence, 1)},
		{"count layout in a v4 frame", heartbeat(4, 100, 3, 1)},
		{"count layout in a v1 frame", heartbeat(version, 100, 3, 1)},
	}
}

// TestForgedCountFramesRejected pins the decode-side bounds of the count
// layout, and that the same record inside the bounds is accepted.
func TestForgedCountFramesRejected(t *testing.T) {
	for _, forged := range forgedCountFrames() {
		if _, err := Decode(forged.frame); err == nil {
			t.Errorf("%s: forged count frame decoded", forged.name)
		}
	}
	snap := &knowledge.Snapshot{From: 1, Seq: 1, Procs: []knowledge.ProcRecord{
		{ID: 0, Dist: 1, Est: bayes.State{Intervals: MaxIntervals, Succ: MaxEvidence - 1, Fail: 1}},
	}}
	b, err := Encode(&Frame{Kind: FrameHeartbeat, Heartbeat: snap, Caps: CapsCounts})
	if err != nil {
		t.Fatal(err)
	}
	f, err := Decode(b)
	if err != nil {
		t.Fatalf("count record at the bounds rejected: %v", err)
	}
	if got := f.Heartbeat.Procs[0].Est; got.Intervals != MaxIntervals || got.Succ != MaxEvidence-1 || got.Fail != 1 {
		t.Errorf("count record at the bounds decoded as %+v", got)
	}
	// Past the bounds the encoder falls back to the raw layout instead of
	// emitting a record peers would reject.
	snap.Procs[0].Est = bayes.State{Intervals: 8, Succ: MaxEvidence, Fail: 1}
	if b, err = Encode(&Frame{Kind: FrameHeartbeat, Heartbeat: snap, Caps: CapsCounts}); err != nil {
		t.Fatal(err)
	}
	if f, err = Decode(b); err != nil {
		t.Fatalf("over-bound counts did not fall back to a decodable layout: %v", err)
	}
	if f.Heartbeat.Procs[0].Est.IsCounts() {
		t.Error("over-bound counts still rode the count layout")
	}
}
