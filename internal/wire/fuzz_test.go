package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
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
		tb.Fatal("seed delta not anchorable")
	}
	empty, ok := v.DeltaSince(v.Version())
	if !ok || len(empty.Procs)+len(empty.Links) != 0 {
		tb.Fatal("steady-state delta not empty")
	}
	heard, heardSince, heardDelta := heardView(tb)
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
		// A stretched-cadence delta.
		{Kind: FrameKnowledgeDelta, Delta: &KnowledgeDelta{Snap: delta, Since: baseVer, Ver: v.Version(), Ack: 9, Cadence: 8}},
		// Epoch-tagged data and delta frames, including a
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
		// Empty lists and optional sections: the
		// first join into a static cluster (nothing departed), an
		// epoch-tagged data frame carrying a piggyback, a heartbeat whose
		// records sit at the decoder's bounds, and a converged delta with
		// no records and a stretched cadence.
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
		{Kind: FrameHeartbeat, Heartbeat: boundsSnapshot()},
		{Kind: FrameKnowledgeDelta, Delta: &KnowledgeDelta{Snap: empty, Since: v.Version(), Ver: v.Version(), Ack: 9, Cadence: 4}},
		// Count records carrying success evidence and relayed estimates,
		// from a view that has heard its neighbour: an epoch-tagged delta,
		// the epoch-tagged full-snapshot fallback, a piggyback on an
		// untagged data frame and a plain heartbeat.
		{Kind: FrameKnowledgeDelta,
			Delta: &KnowledgeDelta{Snap: heardDelta, Since: heardSince, Ver: heard.Version(), Ack: 3, Cadence: 2, Epoch: 4}},
		{Kind: FrameKnowledgeDelta, Delta: &KnowledgeDelta{Snap: heard.Snapshot(), Since: 0, Ver: heard.Version(), Epoch: 4}},
		{Kind: FrameData, Data: &DataMsg{Origin: 1, Seq: 5, Root: 1, Body: []byte("heard"), Piggyback: heard.Snapshot()}},
		{Kind: FrameHeartbeat, Heartbeat: heard.Snapshot()},
	}
}

// heardView returns a view of node 1 that has merged heartbeats from its
// neighbour 0, so its records hold success evidence on the shared link
// and an estimate relayed at distance 1, along with the delta since the
// view's state before the second heartbeat.
func heardView(tb testing.TB) (v *knowledge.View, since uint64, delta *knowledge.Snapshot) {
	tb.Helper()
	peer, err := knowledge.NewView(0, 3, []topology.NodeID{1}, nil, knowledge.Params{})
	if err != nil {
		tb.Fatal(err)
	}
	if v, err = knowledge.NewView(1, 3, []topology.NodeID{0}, nil, knowledge.Params{}); err != nil {
		tb.Fatal(err)
	}
	hear := func() {
		peer.BeginPeriod()
		v.BeginPeriod()
		if err := v.MergeSnapshot(peer.Snapshot()); err != nil {
			tb.Fatal(err)
		}
	}
	hear()
	since = v.Version()
	hear()
	delta, ok := v.DeltaSince(since)
	if !ok {
		tb.Fatal("heard delta not anchorable")
	}
	return v, since, delta
}

// boundsSnapshot holds records at the decoder's bounds: evidence
// saturated at MaxEvidence.
func boundsSnapshot() *knowledge.Snapshot {
	return &knowledge.Snapshot{From: 1, Seq: 1, Procs: []knowledge.ProcRecord{
		{ID: 0, Dist: 1, Est: bayes.State{Succ: MaxEvidence - 1, Fail: 1}},
	}, Links: []knowledge.LinkRecord{
		{Link: topology.NewLink(0, 1), Dist: 0, Est: bayes.State{Fail: MaxEvidence}},
	}}
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
		if x.ID != y.ID || x.Dist != y.Dist || x.Est != y.Est {
			return false
		}
	}
	for i := range a.Links {
		x, y := &a.Links[i], &b.Links[i]
		if x.Link != y.Link || x.Dist != y.Dist || x.Est != y.Est {
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
		return snapshotsEqual(a.Heartbeat, b.Heartbeat)
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
			a.Delta.Epoch == b.Delta.Epoch &&
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
	// Headers the decoder refuses: a v2 heartbeat, the retired v4 and v5,
	// and a v6 heartbeat whose section head declares U = 100.
	f.Add([]byte{magic, 2, byte(FrameHeartbeat), 2, 1, 0, 0})
	f.Add([]byte{magic, 4, byte(FrameKnowledgeDelta)})
	f.Add([]byte{magic, 5, byte(FrameHeartbeat), 5, 2, 1, 0, 0})
	f.Add([]byte{magic, 6, byte(FrameHeartbeat), 1, 1, 1, 0, 100, 0, 2, 3, 1})
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

// handHeartbeat assembles, byte by byte, a heartbeat at wire version
// ver whose section holds one record: a link record if link is set, else
// a process record, with the given bytes — for values no encoder emits.
// Past a version other than the current one nothing is read.
func handHeartbeat(ver byte, link bool, record []byte) []byte {
	b := []byte{magic, ver, byte(FrameHeartbeat), 1, 1, 1, 0} // from 1, seq 1, one process record
	if link {
		b[5], b[6] = 0, 1
	}
	return append(b, record...)
}

// handRecord is a record's bytes: its ID or endpoints, then its
// distortion and its counts.
func handRecord(ids []uint64, dist, succ, fail uint64) []byte {
	var b []byte
	for _, id := range ids {
		b = binary.AppendUvarint(b, id)
	}
	b = binary.AppendUvarint(b, dist)
	b = binary.AppendUvarint(b, succ)
	return binary.AppendUvarint(b, fail)
}

// forgedCount is a hostile heartbeat, what it forges, and the bound
// its decode error must name.
type forgedCount struct {
	name  string
	frame []byte
	why   string
}

// forgedCountFrames hand-assembles heartbeats around one record that no
// encoder would emit: the record is a handful of bytes whatever it
// declares, so only the decoder's own bounds stand between a forged
// count and the float64 it would overflow, a forged ID and the view it
// would index, or a forged distortion and the int32 it would wrap to.
// The bound cases ride the current version, so they reach the record;
// three wrap a legal record of their own layout in the retired v4, v5
// and v6 headers. They are committed to the fuzz corpus as the forged-N
// files (TestWriteSeedCorpus).
func forgedCountFrames() []forgedCount {
	proc := func(dist, succ, fail uint64) []byte {
		return handHeartbeat(version, false, handRecord([]uint64{0}, dist, succ, fail))
	}
	link := func(dist, succ, fail uint64) []byte {
		return handHeartbeat(version, true, handRecord([]uint64{0, 1}, dist, succ, fail))
	}
	legal := handRecord([]uint64{0}, 1, 3, 1)
	// v6 heads a section with U = 100 and shifts a record's distortion
	// past its own-U flag.
	v6 := append([]byte{magic, 6, byte(FrameHeartbeat), 1, 1, 1, 0, 100}, handRecord([]uint64{0}, 2, 3, 1)...)
	return []forgedCount{
		{"success count overflow", proc(1, math.MaxUint64, 0), "evidence counts"},
		{"evidence sum past the bound", proc(1, MaxEvidence, 1), "evidence counts"},
		{"a legal record in a v4 frame", handHeartbeat(4, false, legal), "unsupported version 4"},
		{"a legal record in a v5 frame", handHeartbeat(5, false, legal), "unsupported version 5"},
		{"process ID at MaxProcs", handHeartbeat(version, false, handRecord([]uint64{MaxProcs}, 1, 3, 1)), "process 65536 outside"},
		{"link endpoint at MaxProcs", handHeartbeat(version, true, handRecord([]uint64{0, MaxProcs}, 1, 3, 1)), "process 65536 outside"},
		{"distortion that wraps to 1 in an int32", proc(1<<32+1, 3, 1), "distortion 4294967297 exceeds"},
		{"a legal record in a v6 frame", v6, "unsupported version 6"},
		{"distortion just past DistInf", proc(knowledge.DistInf+1, 3, 1), "distortion 2147483648 exceeds"},
		{"failure count past the bound", link(1, 0, MaxEvidence+1), "evidence counts"},
		{"link distortion that wraps to 0 in an int32", link(1<<32, 3, 1), "distortion 4294967296 exceeds"},
	}
}

// TestForgedCountFramesRejected pins the decode-side bounds of a record,
// and that records at the bounds are accepted.
func TestForgedCountFramesRejected(t *testing.T) {
	for _, forged := range forgedCountFrames() {
		if _, err := Decode(forged.frame); err == nil || !strings.Contains(err.Error(), forged.why) {
			t.Errorf("%s: forged frame decodes with error %v, want one naming %q", forged.name, err, forged.why)
		}
	}
	b, err := Encode(&Frame{Kind: FrameHeartbeat, Heartbeat: boundsSnapshot()})
	if err != nil {
		t.Fatal(err)
	}
	f, err := Decode(b)
	if err != nil {
		t.Fatalf("count records at the bounds rejected: %v", err)
	}
	if !snapshotsEqual(f.Heartbeat, boundsSnapshot()) {
		t.Errorf("count records at the bounds decoded as %+v", f.Heartbeat)
	}
}

// TestEncoderRefusesWhatDecoderRefuses holds the encoder to the bounds
// the decoder enforces, one case per bounded field of a record section:
// a section any receiver would refuse is an encode error on every path
// that writes one — a heartbeat, a delta, a data frame's piggyback, a
// piggyback splice and the shared delta sections — naming the bound the
// decoder names, and the destination comes back as it was.
func TestEncoderRefusesWhatDecoderRefuses(t *testing.T) {
	ok := bayes.State{Succ: 3, Fail: 1}
	proc := func(id topology.NodeID, dist int, est bayes.State) *knowledge.Snapshot {
		return &knowledge.Snapshot{From: 1, Seq: 1, Procs: []knowledge.ProcRecord{{ID: id, Dist: dist, Est: est}}}
	}
	link := func(a, b topology.NodeID) *knowledge.Snapshot {
		return &knowledge.Snapshot{From: 1, Seq: 1, Links: []knowledge.LinkRecord{{Link: topology.Link{A: a, B: b}, Dist: 1, Est: ok}}}
	}
	raw, err := Encode(&Frame{Kind: FrameData, Data: &DataMsg{Origin: 1, Seq: 1, Root: 1, Body: []byte("b")}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		snap *knowledge.Snapshot
		why  string
	}{
		{"negative distortion", proc(0, -1, ok), "distortion 18446744073709551615 exceeds"},
		{"distortion past DistInf", proc(0, knowledge.DistInf+1, ok), "distortion 2147483648 exceeds"},
		{"process ID at MaxProcs", proc(MaxProcs, 1, ok), "process 65536 outside"},
		{"negative process ID", proc(-1, 1, ok), "outside [0,65536)"},
		{"link endpoint at MaxProcs", link(0, MaxProcs), "process 65536 outside"},
		{"negative link endpoint", link(-2, 0), "outside [0,65536)"},
		{"sender at MaxProcs", &knowledge.Snapshot{From: MaxProcs, Seq: 1}, "process 65536 outside"},
		{"success count past MaxEvidence", proc(0, 1, bayes.State{Succ: MaxEvidence + 1}), "evidence counts"},
		{"negative failure count", proc(0, 1, bayes.State{Fail: -1}), "evidence counts"},
		{"evidence sum past MaxEvidence", proc(0, 1, bayes.State{Succ: MaxEvidence, Fail: 1}), "evidence counts"},
	} {
		frames := []*Frame{
			{Kind: FrameHeartbeat, Heartbeat: c.snap},
			{Kind: FrameKnowledgeDelta, Delta: &KnowledgeDelta{Ver: 1, Snap: c.snap}},
			{Kind: FrameData, Data: &DataMsg{Origin: 1, Seq: 1, Root: 1, Piggyback: c.snap}},
		}
		for _, f := range frames {
			if _, err := Encode(f); err == nil || !strings.Contains(err.Error(), c.why) {
				t.Errorf("%s: Encode of a %v frame: error %v, want one naming %q", c.name, f.Kind, err, c.why)
			}
			if b, err := AppendFrame([]byte("dst"), f); err == nil || string(b) != "dst" {
				t.Errorf("%s: AppendFrame of a %v frame returned %q, %v", c.name, f.Kind, b, err)
			}
		}
		var ix SectionIndex
		for name, appendSec := range map[string]func([]byte) ([]byte, error){
			"AppendSnapshotSection":        func(b []byte) ([]byte, error) { return AppendSnapshotSection(b, c.snap) },
			"AppendSnapshotSectionIndexed": func(b []byte) ([]byte, error) { return AppendSnapshotSectionIndexed(b, c.snap, &ix) },
			"SpliceDataPiggyback":          func(b []byte) ([]byte, error) { return SpliceDataPiggyback(b, raw, c.snap) },
		} {
			if b, err := appendSec([]byte("dst")); err == nil || string(b) != "dst" || !strings.Contains(err.Error(), c.why) {
				t.Errorf("%s: %s returned %q, %v; want dst unchanged and an error naming %q", c.name, name, b, err, c.why)
			}
		}
	}
}

// FuzzSectionSubset builds a snapshot from the fuzz input — records with
// IDs up to MaxProcs−1, distortions up to DistInf, counts up to
// MaxEvidence — encodes its section indexed, copies a delta frame of a
// subset of its records drawn from the input, and decodes the frame: the
// result must equal the snapshot without the skipped records.
func FuzzSectionSubset(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 5, 7, 0, 1, 2, 3, 9, 1, 0, 4, 4, 0, 6, 1})
	f.Add(bytes.Repeat([]byte{0xff, 0x7f, 1, 0}, 40))
	var ix SectionIndex
	f.Fuzz(func(t *testing.T, data []byte) {
		// next takes the next varint of the input, 0 once it runs out,
		// modulo bound.
		next := func(bound uint64) uint64 {
			v, k := binary.Uvarint(data)
			if k <= 0 {
				v, data = 0, nil
			} else {
				data = data[k:]
			}
			return v % bound
		}
		est := func() bayes.State {
			var s bayes.State
			s.Succ = int(next(MaxEvidence + 1))
			s.Fail = int(next(uint64(MaxEvidence - s.Succ + 1)))
			return s
		}
		id := func() topology.NodeID { return topology.NodeID(next(MaxProcs)) }
		dist := func() int { return int(next(knowledge.DistInf + 1)) }
		s := &knowledge.Snapshot{From: id(), Seq: next(math.MaxUint64)}
		for i := next(40); i > 0; i-- {
			s.Procs = append(s.Procs, knowledge.ProcRecord{ID: id(), Dist: dist(), Est: est()})
		}
		for i := next(40); i > 0; i-- {
			s.Links = append(s.Links, knowledge.LinkRecord{Link: topology.Link{A: id(), B: id()}, Dist: dist(), Est: est()})
		}
		kept := &knowledge.Snapshot{From: s.From, Seq: s.Seq}
		var skip []int
		for i := range len(s.Procs) + len(s.Links) {
			switch {
			case next(2) == 1:
				skip = append(skip, i)
			case i < len(s.Procs):
				kept.Procs = append(kept.Procs, s.Procs[i])
			default:
				kept.Links = append(kept.Links, s.Links[i-len(s.Procs)])
			}
		}
		sec, err := AppendSnapshotSectionIndexed(nil, s, &ix)
		if err != nil {
			t.Fatal(err)
		}
		b, err := AppendDeltaFrameSubset(nil, &KnowledgeDelta{Since: 1, Ver: 2}, sec, &ix, skip)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("%d of %d records skipped: the subset does not decode: %v", len(skip), len(s.Procs)+len(s.Links), err)
		}
		if !snapshotsEqual(got.Delta.Snap, kept) {
			t.Fatalf("the subset decodes to %+v, want %+v", got.Delta.Snap, kept)
		}
	})
}
