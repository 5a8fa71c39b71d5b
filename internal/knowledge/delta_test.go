package knowledge

import (
	"testing"

	"adaptivecast/internal/bayes"
	"adaptivecast/internal/topology"
)

// deltaView builds a 4-process line-ish view at node 1 with neighbors 0
// and 2 for the delta tests.
func deltaView(t *testing.T, params Params) *View {
	t.Helper()
	v, err := NewView(1, 4, []topology.NodeID{0, 2}, nil, params)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestDeltaSinceRejectsUnanchorableBases(t *testing.T) {
	v := deltaView(t, Params{})
	v.BeginPeriod()
	if _, ok := v.DeltaSince(0); ok {
		t.Fatal("base 0 must force a full snapshot (peer never acked)")
	}
	if _, ok := v.DeltaSince(v.Version() + 1); ok {
		t.Fatal("a base ahead of the view must force a full snapshot (peer acked a previous incarnation)")
	}
	if _, ok := v.DeltaSince(v.Version()); !ok {
		t.Fatal("the current version is a valid (empty) delta base")
	}
}

func TestDeltaSinceEmitsOnlyChangedRecords(t *testing.T) {
	v := deltaView(t, Params{DeltaEpsilon: -1}) // exact tracking
	v.BeginPeriod()
	d, ok := v.DeltaSince(v.Version()) // anchor at "now": nothing newer
	if !ok {
		t.Fatal("delta not anchorable")
	}
	if len(d.Procs) != 0 || len(d.Links) != 0 {
		t.Fatalf("delta at the current version must be empty, got %d procs %d links", len(d.Procs), len(d.Links))
	}

	base := v.Version()
	v.BeginPeriod() // Event 3 moves the self estimate
	d, ok = v.DeltaSince(base)
	if !ok {
		t.Fatal("delta not anchorable")
	}
	if len(d.Procs) != 1 || d.Procs[0].ID != 1 {
		t.Fatalf("expected exactly the self record in the delta, got %+v", d.Procs)
	}
	if d.From != v.Self() || d.Seq != v.SelfSeq() {
		t.Fatalf("delta header (%d, %d) does not match the view (%d, %d)", d.From, d.Seq, v.Self(), v.SelfSeq())
	}
}

func TestDeltaSinceIsCumulativeAcrossPeriods(t *testing.T) {
	v := deltaView(t, Params{DeltaEpsilon: -1})
	v.BeginPeriod()
	base := v.Version()
	v.BeginPeriod()
	mid := v.Version()
	v.BeginPeriod()

	dMid, ok := v.DeltaSince(mid)
	if !ok {
		t.Fatal("delta not anchorable")
	}
	dBase, ok := v.DeltaSince(base)
	if !ok {
		t.Fatal("delta not anchorable")
	}
	// A delta against an older base must carry at least everything the
	// newer base carries: lost frames are repaired by the next delta.
	if len(dBase.Procs) < len(dMid.Procs) || len(dBase.Links) < len(dMid.Links) {
		t.Fatalf("delta since %d (%d procs) smaller than delta since %d (%d procs)",
			base, len(dBase.Procs), mid, len(dMid.Procs))
	}
}

func TestDeltaEpsilonSuppressesConvergedRecords(t *testing.T) {
	// A generous epsilon: the tiny self-estimate drift of one period must
	// not count as a change, so steady-state deltas go empty.
	v := deltaView(t, Params{DeltaEpsilon: 0.5})
	for i := 0; i < 5; i++ {
		v.BeginPeriod()
	}
	v.Snapshot() // baseline the signatures, as sending a full would
	base := v.Version()
	v.BeginPeriod()
	d, ok := v.DeltaSince(base)
	if !ok {
		t.Fatal("delta not anchorable")
	}
	if len(d.Procs) != 0 {
		t.Fatalf("sub-epsilon drift must not re-ship records, got %d procs", len(d.Procs))
	}
	// Exact tracking on the same schedule would have shipped the self
	// record every period.
	ve := deltaView(t, Params{DeltaEpsilon: -1})
	for i := 0; i < 5; i++ {
		ve.BeginPeriod()
	}
	base = ve.Version()
	ve.BeginPeriod()
	d, ok = ve.DeltaSince(base)
	if !ok || len(d.Procs) != 1 {
		t.Fatalf("exact tracking should ship the self record, got ok=%v procs=%d", ok, len(d.Procs))
	}
}

func TestDeltaIncludesAdoptedKnowledge(t *testing.T) {
	in := NewInterner()
	a, err := NewView(0, 3, []topology.NodeID{1}, in, Params{DeltaEpsilon: -1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewView(1, 3, []topology.NodeID{0, 2}, in, Params{DeltaEpsilon: -1})
	if err != nil {
		t.Fatal(err)
	}
	b.BeginPeriod()
	a.BeginPeriod()
	base := a.Version()
	if err := a.MergeSnapshot(b.Snapshot()); err != nil {
		t.Fatal(err)
	}
	d, ok := a.DeltaSince(base)
	if !ok {
		t.Fatal("delta not anchorable")
	}
	// The merge adopted b's self estimate and learned the 1—2 link; both
	// must ride the next delta so knowledge keeps propagating hop by hop.
	foundProc, foundLink := false, false
	for _, pr := range d.Procs {
		if pr.ID == 1 {
			foundProc = true
		}
	}
	for _, lr := range d.Links {
		if lr.Link == topology.NewLink(1, 2) {
			foundLink = true
		}
	}
	if !foundProc || !foundLink {
		t.Fatalf("adopted knowledge missing from delta: proc=%v link=%v (%+v)", foundProc, foundLink, d)
	}

	// Re-adopting the same estimate over a shorter route changes only its
	// distortion, and at the default DeltaEpsilon that re-ships too:
	// peers' adoption decisions read distortion.
	v, err := NewView(0, 3, []topology.NodeID{1}, in, Params{})
	if err != nil {
		t.Fatal(err)
	}
	far, err := NewView(2, 3, []topology.NodeID{1}, in, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.MergeSnapshotKnowledgeOnly(far.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := v.MergeSnapshotKnowledgeOnly(b.Snapshot()); err != nil {
		t.Fatal(err)
	}
	v.Snapshot() // baseline the signatures, as sending a full would
	base = v.Version()
	if err := v.MergeSnapshotKnowledgeOnly(far.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if _, dist := v.CrashEstimate(2); dist != 1 {
		t.Fatalf("re-adoption distortion = %d, want 1", dist)
	}
	if d, ok := v.DeltaSince(base); !ok || len(d.Procs) != 1 || d.Procs[0].ID != 2 {
		t.Errorf("a distortion-only re-adoption must re-ship the record, delta %+v (anchored %v)", d, ok)
	}
}

// TestDeltaConvergesLikeFullSnapshots drives two neighbor views with delta
// frames only (after one initial full snapshot) and checks the receiver
// tracks the sender's estimates as closely as a receiver fed full
// snapshots every period.
func TestDeltaConvergesLikeFullSnapshots(t *testing.T) {
	mk := func() (*View, *View) {
		src, err := NewView(0, 2, []topology.NodeID{1}, nil, Params{})
		if err != nil {
			t.Fatal(err)
		}
		dst, err := NewView(1, 2, []topology.NodeID{0}, nil, Params{})
		if err != nil {
			t.Fatal(err)
		}
		return src, dst
	}
	srcD, dstD := mk() // delta-fed pair
	srcF, dstF := mk() // full-fed pair

	acked := uint64(0)
	for period := 0; period < 50; period++ {
		srcD.BeginPeriod()
		srcF.BeginPeriod()
		dstD.BeginPeriod()
		dstF.BeginPeriod()

		var snapD *Snapshot
		if d, ok := srcD.DeltaSince(acked); ok {
			snapD = d
		} else {
			snapD = srcD.Snapshot()
		}
		if err := dstD.MergeSnapshot(snapD); err != nil {
			t.Fatal(err)
		}
		acked = srcD.Version()

		if err := dstF.MergeSnapshot(srcF.Snapshot()); err != nil {
			t.Fatal(err)
		}
	}

	for i := 0; i < 2; i++ {
		mD, _ := dstD.CrashEstimate(topology.NodeID(i))
		mF, _ := dstF.CrashEstimate(topology.NodeID(i))
		if diff := mD - mF; diff > 2e-4 || diff < -2e-4 {
			t.Fatalf("delta-fed estimate of %d drifted: %v vs full-fed %v", i, mD, mF)
		}
	}
}

// TestSplitHorizon: a delta toward a neighbor leaves out what that
// neighbor supplied and the link the two share, and still ships those
// records toward every other neighbor; a full snapshot leaves nothing
// out; and a record whose supplier moves to another neighbor with a new
// stamp reaches the old supplier on its next cut.
func TestSplitHorizon(t *testing.T) {
	const tNb, uNb = 0, 2 // node 1's neighbors T and U
	v := deltaView(t, Params{})
	v.BeginPeriod()
	base := v.Version()
	est := func(succ int) bayes.State { return bayes.State{Intervals: bayes.DefaultIntervals, Succ: succ, Fail: 3} }
	// T supplies itself, process 3 and the remote link 2—3; U supplies
	// itself. Node 1 measures its links to both.
	if err := v.MergeSnapshot(&Snapshot{From: tNb, Seq: 1,
		Procs: []ProcRecord{{ID: tNb, Est: est(50)}, {ID: 3, Dist: 1, Est: est(60)}},
		Links: []LinkRecord{{Link: topology.NewLink(2, 3), Dist: 1, Est: est(70)}}}); err != nil {
		t.Fatal(err)
	}
	if err := v.MergeSnapshot(&Snapshot{From: uNb, Seq: 1,
		Procs: []ProcRecord{{ID: uNb, Est: est(80)}}}); err != nil {
		t.Fatal(err)
	}
	type rec struct {
		proc topology.NodeID
		link topology.Link
	}
	recs := func(s *Snapshot) map[rec]bool {
		out := map[rec]bool{}
		for _, pr := range s.Procs {
			out[rec{proc: pr.ID, link: topology.Link{A: -1, B: -1}}] = true
		}
		for _, lr := range s.Links {
			out[rec{proc: -1, link: lr.Link}] = true
		}
		return out
	}
	proc := func(id topology.NodeID) rec { return rec{proc: id, link: topology.Link{A: -1, B: -1}} }
	link := func(a, b topology.NodeID) rec { return rec{proc: -1, link: topology.NewLink(a, b)} }
	fromT := []rec{proc(tNb), proc(3), link(2, 3), link(1, tNb)}
	fromU := []rec{proc(uNb), link(1, uNb)}

	all, ok := v.DeltaSince(base)
	if !ok {
		t.Fatal("delta not anchorable")
	}
	for _, c := range []struct {
		to            topology.NodeID
		omits, others []rec
	}{{tNb, fromT, fromU}, {uNb, fromU, fromT}} {
		d, ok := v.DeltaTo(base, c.to)
		if !ok {
			t.Fatal("delta not anchorable")
		}
		got := recs(d)
		for _, r := range c.omits {
			if got[r] {
				t.Errorf("the delta toward %d ships %+v, which it holds at lower distortion", c.to, r)
			}
		}
		for _, r := range append(c.others, proc(1)) {
			if !got[r] {
				t.Errorf("the delta toward %d lacks %+v", c.to, r)
			}
		}
		// DeltaTo is the receiver-agnostic cut less the records
		// AppendOmitted names, in the same order.
		skip := v.AppendOmitted(nil, all, c.to)
		if len(skip) != len(c.omits) || len(d.Procs)+len(d.Links)+len(skip) != len(all.Procs)+len(all.Links) {
			t.Errorf("toward %d: %d records left out of %d, %d shipped; want %d left out",
				c.to, len(skip), len(all.Procs)+len(all.Links), len(d.Procs)+len(d.Links), len(c.omits))
		}
	}
	full := v.Snapshot()
	if skip := v.AppendOmitted(nil, full, tNb); len(skip) != 0 {
		t.Errorf("a full snapshot leaves out records %v toward %d", skip, tNb)
	}
	if got := recs(full); !got[proc(3)] || !got[link(1, tNb)] || !got[proc(tNb)] {
		t.Errorf("the full snapshot lacks what T supplied: %v", got)
	}

	// T acks everything; then U supplies process 3 at a lower distortion.
	// The record's new stamp ships it to T, no longer its supplier, and
	// not back to U.
	acked := v.Version()
	if err := v.MergeSnapshot(&Snapshot{From: uNb, Seq: 2,
		Procs: []ProcRecord{{ID: 3, Dist: 0, Est: est(90)}}}); err != nil {
		t.Fatal(err)
	}
	if d, _ := v.DeltaTo(acked, tNb); !recs(d)[proc(3)] {
		t.Errorf("process 3, now supplied by U, does not reach T: %+v", d)
	}
	if d, _ := v.DeltaTo(acked, uNb); recs(d)[proc(3)] {
		t.Errorf("process 3 echoes back to U, which supplied it: %+v", d)
	}
}
