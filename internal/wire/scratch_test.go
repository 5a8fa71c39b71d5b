package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"adaptivecast/internal/bayes"
	"adaptivecast/internal/knowledge"
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

// decodeEverywhere decodes b the three ways a frame reaches a decoder —
// fresh, borrowed, and into a Scratch that just held a valid frame — and
// returns each one's error.
func decodeEverywhere(tb testing.TB, b []byte) map[string]error {
	tb.Helper()
	var sc Scratch
	if _, err := sc.DecodeBorrow(treeFrame(tb, 8, 3, "dirty")); err != nil {
		tb.Fatal(err)
	}
	errs := make(map[string]error, 3)
	for name, decode := range map[string]func([]byte) (*Frame, error){
		"Decode": Decode, "DecodeBorrow": DecodeBorrow, "Scratch.DecodeBorrow": sc.DecodeBorrow,
	} {
		_, errs[name] = decode(b)
	}
	return errs
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
// fresh-storage wrappers cost the fresh Scratch they decode into (Frame
// and DataMsg together), Parents and AllocByNode — and the body copy for
// Decode.
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
		{"DecodeBorrow", DecodeBorrow, 3},
		{"Decode", Decode, 4},
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

// countHeartbeat encodes a v5 heartbeat from process 1 of procs process
// records and links link records, evidence counts all but the first
// process record: that one builds on a raw prior peaked at interval peak,
// so it rides the raw float layout and its decoded estimator state owns a
// vector.
func countHeartbeat(tb testing.TB, seq uint64, procs, links, peak int) (*knowledge.Snapshot, []byte) {
	tb.Helper()
	prior := make([]float64, 8)
	for i := range prior {
		prior[i] = -float64((i - peak) * (i - peak))
	}
	snap := &knowledge.Snapshot{From: 1, Seq: seq}
	for i := 0; i < procs; i++ {
		est := bayes.State{Intervals: bayes.DefaultIntervals, Succ: 10 + i + peak, Fail: i % 7}
		if i == 0 {
			est = bayes.State{Intervals: len(prior), LogBeliefs: prior}
		}
		snap.Procs = append(snap.Procs, knowledge.ProcRecord{ID: topology.NodeID(i + 1), Dist: i % 3, Est: est})
	}
	for i := 0; i < links; i++ {
		snap.Links = append(snap.Links, knowledge.LinkRecord{
			Link: topology.NewLink(topology.NodeID(i+1), topology.NodeID(i+2)), Dist: 1 + i%3,
			Est: bayes.State{Intervals: bayes.DefaultIntervals, Succ: 50 + i + peak, Fail: i % 5},
		})
	}
	b, err := Encode(&Frame{Kind: FrameHeartbeat, Heartbeat: snap, Caps: CapsCounts})
	if err != nil {
		tb.Fatal(err)
	}
	return snap, b
}

// TestScratchHeartbeatRecordsAreOverwritten: heartbeat A (300 records)
// then heartbeat B (3 records) into one Scratch yields exactly B's
// records, and a view that merged A out of the Scratch — raw-layout record
// included, whose estimator keeps the decoded vector as its prior — reads
// the same means after B, whose own raw record lands in the same slot, is
// decoded over it.
func TestScratchHeartbeatRecordsAreOverwritten(t *testing.T) {
	snapA, a := countHeartbeat(t, 1, 120, 180, 2)
	_, b := countHeartbeat(t, 2, 2, 1, 6)
	var sc Scratch
	fa, err := sc.DecodeBorrow(a)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := Decode(a); !framesEqual(want, fa) {
		t.Fatal("heartbeat A through a Scratch differs from its fresh decode")
	}
	v, err := knowledge.NewView(0, 200, []topology.NodeID{1}, nil, knowledge.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.MergeSnapshot(fa.Heartbeat); err != nil {
		t.Fatal(err)
	}
	means := func() (out []float64) {
		for _, pr := range snapA.Procs {
			m, _ := v.CrashEstimate(pr.ID)
			out = append(out, m)
		}
		for _, lr := range snapA.Links {
			m, _, ok := v.LossEstimate(lr.Link)
			if !ok {
				t.Fatalf("the view did not learn link %v from heartbeat A", lr.Link)
			}
			out = append(out, m)
		}
		return out
	}
	before := means()
	if raw, _ := bayes.NewFromState(snapA.Procs[0].Est); before[0] != raw.Mean() {
		t.Fatalf("the raw-layout record reads %v in the view, its state means %v: it was not adopted", before[0], raw.Mean())
	}

	fb, err := sc.DecodeBorrow(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(fb.Heartbeat.Procs) != 2 || len(fb.Heartbeat.Links) != 1 {
		t.Fatalf("heartbeat B decoded to %d process and %d link records after A, want 2 and 1", len(fb.Heartbeat.Procs), len(fb.Heartbeat.Links))
	}
	if want, _ := Decode(b); !framesEqual(want, fb) {
		t.Fatal("heartbeat B through the Scratch that held A differs from its fresh decode")
	}
	for i, m := range means() {
		if math.Float64bits(m) != math.Float64bits(before[i]) {
			t.Fatalf("estimate %d read %v after merging A and %v once B was decoded into the same Scratch", i, before[i], m)
		}
	}
}

// TestAllocsDecodeHeartbeat: a delta frame of evidence-count records, the
// steady-state heartbeat, decodes into a Scratch that held one like it
// without allocating; the fresh wrapper pays a Scratch and its two record
// slices.
func TestAllocsDecodeHeartbeat(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation pins do not hold under the race detector")
	}
	snap, _ := countHeartbeat(t, 3, 40, 60, 0)
	snap.Procs = snap.Procs[1:] // counts only
	b, err := Encode(&Frame{Kind: FrameKnowledgeDelta, Delta: &KnowledgeDelta{Snap: snap, Since: 4, Ver: 9, Ack: 2, Caps: CapsCounts}})
	if err != nil {
		t.Fatal(err)
	}
	var sc Scratch
	for _, c := range []struct {
		name   string
		decode func([]byte) (*Frame, error)
		want   float64
	}{
		{"Scratch.DecodeBorrow", sc.DecodeBorrow, 0},
		{"DecodeBorrow", DecodeBorrow, 3},
	} {
		got := testing.AllocsPerRun(200, func() {
			if f, err := c.decode(b); err != nil || len(f.Delta.Snap.Procs) != 39 || len(f.Delta.Snap.Links) != 60 {
				t.Fatal(f, err)
			}
		})
		if got != c.want {
			t.Errorf("%s of a count delta frame allocated %.1f times per op, want %.0f", c.name, got, c.want)
		}
	}
}

// TestForgedRecordCountMustNotAmplify: a record count sizes an array of
// ≈ 100-byte records, so it is bounded by what the bytes left could hold
// at the shortest legal record, not by the bytes themselves. A 200 KB
// frame declaring 200,000 process (or link) records must fail to decode —
// fresh, borrowed, or into a Scratch a valid heartbeat just used — before
// the array is made; and a Scratch does not keep arrays past keepRecords.
func TestForgedRecordCountMustNotAmplify(t *testing.T) {
	const declared = 200000
	forge := func(links bool) []byte {
		b := []byte{magic, version, byte(FrameHeartbeat)}
		b = binary.AppendVarint(b, 1)  // From
		b = binary.AppendUvarint(b, 1) // Seq
		if links {
			b = binary.AppendUvarint(b, 0) // no process records
		}
		b = binary.AppendUvarint(b, declared)
		// The shortest records there are, repeated, so without the bound
		// the parse runs on until the bytes are gone.
		rec := []byte{0, 0, flagUniform, 0, 0} // process 0 at distortion 0, U 0, no beliefs
		if links {
			rec = []byte{2, 4, 0, flagUniform, 0, 0} // link 1–2
		}
		return append(b, bytes.Repeat(rec, declared/len(rec))...)
	}
	_, valid := countHeartbeat(t, 1, 20, 30, 1)
	var sc Scratch
	for _, links := range []bool{false, true} {
		b := forge(links)
		for name, decode := range map[string]func([]byte) (*Frame, error){
			"Decode": Decode, "DecodeBorrow": DecodeBorrow, "Scratch.DecodeBorrow": sc.DecodeBorrow,
		} {
			if _, err := sc.DecodeBorrow(valid); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := decode(b)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Errorf("%s accepted %d records (links: %v) in %d bytes", name, declared, links, len(b))
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
				t.Errorf("%s allocated %d bytes rejecting a %d-byte frame (links: %v), want < 1 MiB", name, got, len(b), links)
			}
		}
	}
	if minProcRecordSize != 5 || minLinkRecordSize != 6 {
		t.Errorf("shortest records are %d and %d bytes, the forged frames assume 5 and 6", minProcRecordSize, minLinkRecordSize)
	}

	// The shortest legal records, exactly as many as the bytes hold, still
	// decode (into estimators no view would adopt): the bound is tight.
	exact := []byte{magic, version, byte(FrameHeartbeat), 2, 1, 3}
	exact = append(exact, bytes.Repeat([]byte{0, 0, flagUniform, 0, 0}, 3)...)
	exact = append(exact, 2)
	exact = append(exact, bytes.Repeat([]byte{2, 4, 0, flagUniform, 0, 0}, 2)...)
	if f, err := Decode(exact); err != nil || len(f.Heartbeat.Procs) != 3 || len(f.Heartbeat.Links) != 2 {
		t.Errorf("shortest-record heartbeat decoded to %+v, %v; want 3 process and 2 link records", f, err)
	}

	_, huge := countHeartbeat(t, 1, keepRecords+1, keepRecords+1, 1)
	if _, err := sc.DecodeBorrow(huge); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.DecodeBorrow(valid); err != nil {
		t.Fatal(err)
	}
	if cap(sc.snap.Procs) > keepRecords || cap(sc.snap.Links) > keepRecords {
		t.Errorf("the Scratch kept arrays of %d and %d records after a %d-record heartbeat, want at most %d",
			cap(sc.snap.Procs), cap(sc.snap.Links), keepRecords+1, keepRecords)
	}
}
