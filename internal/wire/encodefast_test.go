package wire

import (
	"bytes"
	"math/rand"
	"testing"

	"adaptivecast/internal/bayes"
	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/topology"
)

// TestAppendFrameMatchesEncode pins the core contract of the fast path:
// for every canonical frame (all kinds), AppendFrame produces bytes
// identical to Encode, into a fresh slice or a reused buffer's room, and
// leaves an existing prefix untouched.
func TestAppendFrameMatchesEncode(t *testing.T) {
	for i, f := range seedFrames(t) {
		want, err := Encode(f)
		if err != nil {
			t.Fatalf("seed %d: Encode: %v", i, err)
		}

		got, err := AppendFrame(nil, f)
		if err != nil {
			t.Fatalf("seed %d: AppendFrame: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("seed %d: AppendFrame bytes differ from Encode", i)
		}

		buf := make([]byte, 0, len(want)+64)
		got, err = AppendFrame(buf, f)
		if err != nil {
			t.Fatalf("seed %d: AppendFrame into a buffer: %v", i, err)
		}
		if !bytes.Equal(got, want) || &got[0] != &buf[:1][0] {
			t.Errorf("seed %d: AppendFrame into a buffer's room gave other bytes or storage than Encode's", i)
		}

		prefix := []byte("prefix")
		got, err = AppendFrame(append([]byte(nil), prefix...), f)
		if err != nil {
			t.Fatalf("seed %d: AppendFrame with prefix: %v", i, err)
		}
		if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Errorf("seed %d: AppendFrame with prefix corrupted the output", i)
		}
	}
}

// TestAppendFrameRejectsInvalid: the fast path applies the same
// validation as Encode and returns dst unmodified on error.
func TestAppendFrameRejectsInvalid(t *testing.T) {
	dst := []byte("keep")
	out, err := AppendFrame(dst, &Frame{Kind: FrameData})
	if err == nil {
		t.Fatal("AppendFrame accepted a data frame with no payload")
	}
	if !bytes.Equal(out, dst) {
		t.Fatalf("AppendFrame modified dst on error: %q", out)
	}
}

// TestAppendDeltaFrameMatchesEncode: building a delta frame around a
// pre-encoded snapshot section (the shared-cut path Tick uses) yields
// bytes identical to encoding the full frame, across every delta seed
// (partial, full-snapshot fallback, stretched cadence, epoch-tagged).
func TestAppendDeltaFrameMatchesEncode(t *testing.T) {
	for i, f := range seedFrames(t) {
		if f.Kind != FrameKnowledgeDelta {
			continue
		}
		want, err := Encode(f)
		if err != nil {
			t.Fatalf("seed %d: Encode: %v", i, err)
		}
		section, err := AppendSnapshotSection(nil, f.Delta.Snap)
		if err != nil {
			t.Fatalf("seed %d: snapshot section: %v", i, err)
		}
		// The header must not read d.Snap: a shared cut is built for a
		// whole acked-base group and spliced under per-neighbor headers.
		d := *f.Delta
		d.Snap = nil
		got, err := AppendDeltaFrame(nil, &d, section)
		if err != nil {
			t.Fatalf("seed %d: AppendDeltaFrame: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("seed %d: AppendDeltaFrame bytes differ from Encode", i)
		}
	}
}

// spliceSnapshots builds two distinct snapshots for splice tests.
func spliceSnapshots(t *testing.T) (a, b *knowledge.Snapshot) {
	t.Helper()
	v, err := knowledge.NewView(1, 5, []topology.NodeID{0, 2}, nil, knowledge.Params{})
	if err != nil {
		t.Fatal(err)
	}
	v.BeginPeriod()
	a = v.Snapshot()
	v.BeginPeriod()
	v.BeginPeriod()
	b = v.Snapshot()
	return a, b
}

// TestSpliceDataPiggyback: replacing, adding, or stripping the piggyback
// section of an encoded data frame is byte-identical to re-encoding the
// frame with the new snapshot, for both plain and epoch-tagged data
// frames.
func TestSpliceDataPiggyback(t *testing.T) {
	snapA, snapB := spliceSnapshots(t)
	msgs := []*DataMsg{
		{Origin: 2, Seq: 7, Root: 2, Body: []byte("plain")},
		{
			Origin:      0,
			Seq:         1,
			Root:        0,
			Parents:     []topology.NodeID{topology.None, 0, 0},
			AllocByNode: []int32{0, 2, 1},
			Body:        []byte("tree"),
			Piggyback:   snapA,
		},
		{Origin: 2, Seq: 3, Root: 2, Body: []byte("epoch"), Epoch: 4, Piggyback: snapA},
	}
	for i, msg := range msgs {
		raw, err := Encode(&Frame{Kind: FrameData, Data: msg})
		if err != nil {
			t.Fatalf("msg %d: Encode: %v", i, err)
		}
		for _, snap := range []*knowledge.Snapshot{snapB, snapA, nil} {
			reencoded := *msg
			reencoded.Piggyback = snap
			want, err := Encode(&Frame{Kind: FrameData, Data: &reencoded})
			if err != nil {
				t.Fatalf("msg %d: Encode with replaced piggyback: %v", i, err)
			}
			got, err := SpliceDataPiggyback(nil, raw, snap)
			if err != nil {
				t.Fatalf("msg %d: SpliceDataPiggyback: %v", i, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("msg %d: splice output differs from re-encoding (snap=%v)", i, snap != nil)
			}
		}
	}
}

// TestSpliceRejectsNonData: splicing is only defined over FrameData.
func TestSpliceRejectsNonData(t *testing.T) {
	snapA, _ := spliceSnapshots(t)
	raw, err := Encode(&Frame{Kind: FrameHeartbeat, Heartbeat: snapA})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SpliceDataPiggyback(nil, raw, nil); err == nil {
		t.Fatal("SpliceDataPiggyback accepted a heartbeat frame")
	}
}

// TestEncodeDataFrameZeroAlloc is the allocation-regression gate for the
// hot broadcast path: encoding a data frame into a warm pooled buffer
// must not allocate at all. A regression here silently reintroduces
// per-broadcast garbage across every node in a cluster.
func TestEncodeDataFrameZeroAlloc(t *testing.T) {
	f := &Frame{Kind: FrameData, Data: &DataMsg{
		Origin:      0,
		Seq:         1,
		Root:        0,
		Parents:     []topology.NodeID{topology.None, 0, 0},
		AllocByNode: []int32{0, 2, 1},
		Body:        bytes.Repeat([]byte("x"), 256),
		Epoch:       2,
	}}
	buf := make([]byte, 0, 4096)
	if _, err := AppendFrame(buf, f); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := AppendFrame(buf, f); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("data-frame AppendFrame allocated %.1f times per op, want 0", allocs)
	}
}

// TestEncodeDeltaFrameAllocBound: assembling a delta frame from a shared
// pre-encoded cut stays within one allocation per op (the issue budget;
// measured today it is zero).
func TestEncodeDeltaFrameAllocBound(t *testing.T) {
	snapA, _ := spliceSnapshots(t)
	section, err := AppendSnapshotSection(make([]byte, 0, 8192), snapA)
	if err != nil {
		t.Fatal(err)
	}
	d := &KnowledgeDelta{Since: 3, Ver: 5, Ack: 9, Cadence: 2, Epoch: 4}
	buf := make([]byte, 0, len(section)+256)
	if _, err := AppendDeltaFrame(buf, d, section); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := AppendDeltaFrame(buf[:0], d, section); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("delta-frame assembly allocated %.1f times per op, want <= 1", allocs)
	}
}

// TestSpliceZeroAlloc: a relay's piggyback strip into a warm buffer is
// allocation-free (the splice only scans varints and copies bytes).
func TestSpliceZeroAlloc(t *testing.T) {
	snapA, _ := spliceSnapshots(t)
	raw, err := Encode(&Frame{Kind: FrameData, Data: &DataMsg{
		Origin: 2, Seq: 7, Root: 2, Body: []byte("payload"), Piggyback: snapA,
	}})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, len(raw))
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := SpliceDataPiggyback(buf[:0], raw, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("piggyback strip allocated %.1f times per op, want 0", allocs)
	}
}

// TestSectionSubsetMatchesEncode: copying a subset of the records
// of an indexed section is byte-identical to encoding the snapshot
// without the skipped records under the same head, over random
// snapshots (varints of every width, so records differ in length) and
// random skip sets, including none, all of them and empty record lists;
// the frame form matches AppendDeltaFrame around the filtered section.
func TestSectionSubsetMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	est := func() bayes.State {
		return bayes.State{Succ: rng.Intn(1 << uint(rng.Intn(40))), Fail: rng.Intn(1 << uint(rng.Intn(20)))}
	}
	var ix SectionIndex // carried across cases, as Tick carries it across periods
	for c := 0; c < 500; c++ {
		s := &knowledge.Snapshot{From: topology.NodeID(rng.Intn(300)), Seq: rng.Uint64() >> uint(rng.Intn(64))}
		for i := rng.Intn(6) * rng.Intn(40); i > 0; i-- {
			s.Procs = append(s.Procs, knowledge.ProcRecord{ID: topology.NodeID(rng.Intn(300)), Dist: rng.Intn(200), Est: est()})
		}
		for i := rng.Intn(6) * rng.Intn(40); i > 0; i-- {
			s.Links = append(s.Links, knowledge.LinkRecord{
				Link: topology.NewLink(topology.NodeID(rng.Intn(150)), topology.NodeID(150+rng.Intn(150))),
				Dist: rng.Intn(200), Est: est()})
		}
		n := len(s.Procs) + len(s.Links)
		var skip []int
		kept := &knowledge.Snapshot{From: s.From, Seq: s.Seq}
		p := []float64{0, 1, rng.Float64()}[c%3] // skip none, all, or a random share
		for i := 0; i < n; i++ {
			switch {
			case rng.Float64() < p:
				skip = append(skip, i)
			case i < len(s.Procs):
				kept.Procs = append(kept.Procs, s.Procs[i])
			default:
				kept.Links = append(kept.Links, s.Links[i-len(s.Procs)])
			}
		}
		prefix := []byte("prefix")
		b, err := AppendSnapshotSectionIndexed(append([]byte(nil), prefix...), s, &ix)
		if err != nil {
			t.Fatal(err)
		}
		sec := b[len(prefix):]
		if full, _ := AppendSnapshotSection(nil, s); !bytes.Equal(sec, full) {
			t.Fatalf("case %d: the indexed section differs from AppendSnapshotSection", c)
		}
		want, err := appendSection(nil, kept, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendSectionSubset(append([]byte(nil), prefix...), sec, &ix, skip); !bytes.Equal(got[len(prefix):], want) || !bytes.HasPrefix(got, prefix) {
			t.Fatalf("case %d: %d of %d records skipped: subset section differs from encoding the %d kept", c, len(skip), n, n-len(skip))
		}
		d := &KnowledgeDelta{Since: 3, Ver: 9, Ack: 4}
		wantFrame, err := AppendDeltaFrame(nil, d, want)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := AppendDeltaFrameSubset(nil, d, sec, &ix, skip); err != nil || !bytes.Equal(got, wantFrame) {
			t.Fatalf("case %d: the subset frame differs from AppendDeltaFrame of the kept records (%v)", c, err)
		}
	}
}

// TestRecordWireBytes pins what a record costs: with IDs, distortions
// and evidence counts below 128 — a byte per varint — a process record
// is at most 4 B and a link record at most 5 B, and a section's head is
// its sender, its sequence number and its two record counts.
func TestRecordWireBytes(t *testing.T) {
	est := bayes.State{Succ: 127, Fail: 127}
	s := &knowledge.Snapshot{From: 127, Seq: 1,
		Procs: []knowledge.ProcRecord{{ID: 127, Dist: 127, Est: est}, {ID: 0, Dist: 0, Est: bayes.State{}}},
		Links: []knowledge.LinkRecord{{Link: topology.NewLink(126, 127), Dist: 127, Est: est},
			{Link: topology.NewLink(0, 1), Dist: 1, Est: bayes.State{Succ: 3}}},
	}
	var ix SectionIndex
	sec, err := AppendSnapshotSectionIndexed(nil, s, &ix)
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.recs[0].from; got != 4 {
		t.Errorf("the section head is %d B, want 4", got)
	}
	if got, want := len(sec), 4+4+4+5+5; got != want {
		t.Errorf("the section is %d B, want %d", got, want)
	}
	for i, want := range []int{4, 4, 5, 5} {
		if got := ix.recs[i].to - ix.recs[i].from; got > want {
			t.Errorf("record %d is %d B, want at most %d", i, got, want)
		}
	}
}
