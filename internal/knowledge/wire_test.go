package knowledge_test

import (
	"math/rand"
	"reflect"
	"testing"

	"adaptivecast/internal/bayes"
	"adaptivecast/internal/config"
	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/raceflag"
	"adaptivecast/internal/topology"
	"adaptivecast/internal/wire"
)

// overWire puts a snapshot through the codec as a heartbeat frame.
func overWire(tb testing.TB, snap *knowledge.Snapshot) *knowledge.Snapshot {
	tb.Helper()
	b, err := wire.Encode(&wire.Frame{Kind: wire.FrameHeartbeat, Heartbeat: snap})
	if err != nil {
		tb.Fatal(err)
	}
	f, err := wire.Decode(b)
	if err != nil {
		tb.Fatal(err)
	}
	return f.Heartbeat
}

// TestEvidenceCountSurvivesAdoption pins the wire bugfix end to end: an
// estimate adopted from a count heartbeat keeps the evidence count its
// owner accumulated, so Observations() no longer reads zero for
// everything learned over the wire.
func TestEvidenceCountSurvivesAdoption(t *testing.T) {
	owner, err := knowledge.NewView(0, 3, []topology.NodeID{1}, nil, knowledge.Params{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 37; i++ {
		owner.BeginPeriod()
	}
	if got := owner.ProcEstimator(0).Observations(); got != 37 {
		t.Fatalf("owner absorbed %d observations, want 37", got)
	}
	adopter, err := knowledge.NewView(1, 3, []topology.NodeID{0}, nil, knowledge.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if err := adopter.MergeSnapshot(overWire(t, owner.Snapshot())); err != nil {
		t.Fatal(err)
	}
	est := adopter.ProcEstimator(0)
	if got := est.Observations(); got != 37 {
		t.Errorf("adopted estimate reports %d observations, want 37", got)
	}
	if est.Mean() != owner.ProcEstimator(0).Mean() {
		t.Errorf("adopted mean %v, owner's %v", est.Mean(), owner.ProcEstimator(0).Mean())
	}
}

// TestReadoptionKeepsUnchangedEstimator: an estimate re-adopted with the
// counts the view already holds — the same owner's state arriving again,
// or over another equal-distance route — keeps its estimator untouched;
// changed counts are adopted (into the estimator the record already owns
// or a new one, the view's choice); a malformed state changes nothing.
func TestReadoptionKeepsUnchangedEstimator(t *testing.T) {
	owner, err := knowledge.NewView(0, 3, []topology.NodeID{1}, nil, knowledge.Params{})
	if err != nil {
		t.Fatal(err)
	}
	adopter, err := knowledge.NewView(1, 3, []topology.NodeID{0}, nil, knowledge.Params{})
	if err != nil {
		t.Fatal(err)
	}
	owner.BeginPeriod()
	snap := owner.Snapshot()
	if err := adopter.MergeSnapshot(overWire(t, snap)); err != nil {
		t.Fatal(err)
	}
	first := adopter.ProcEstimator(0)
	if err := adopter.MergeSnapshot(overWire(t, snap)); err != nil {
		t.Fatal(err)
	}
	if got := adopter.ProcEstimator(0); got != first || got.Observations() != 1 {
		t.Errorf("re-adopting unchanged counts rebuilt the estimator (%d observations)", got.Observations())
	}
	owner.BeginPeriod()
	if err := adopter.MergeSnapshot(overWire(t, owner.Snapshot())); err != nil {
		t.Fatal(err)
	}
	got := adopter.ProcEstimator(0)
	if got.Observations() != 2 || got.Mean() != owner.ProcEstimator(0).Mean() {
		t.Errorf("changed counts were not adopted: %d observations, mean %v (owner's %v)",
			got.Observations(), got.Mean(), owner.ProcEstimator(0).Mean())
	}

	// A closer route's record that fails validation is refused whole.
	mean := got.Mean()
	forged := &knowledge.Snapshot{From: 0, Seq: 9, Procs: []knowledge.ProcRecord{
		{ID: 0, Dist: 0, Est: bayes.State{Succ: 5, Fail: -1}},
	}}
	if err := adopter.MergeSnapshotKnowledgeOnly(forged); err == nil {
		t.Fatal("a negative evidence count was adopted")
	}
	if after := adopter.ProcEstimator(0); after.Observations() != 2 || after.Mean() != mean {
		t.Errorf("a malformed state moved the estimate: %d observations, mean %v (was 2, %v)",
			after.Observations(), after.Mean(), mean)
	}
}

// benchCluster grows n views over a random 4-connected graph by exchanging
// snapshots for a few lossy periods, so every view holds estimates for
// the whole system, and returns them with the graph.
func benchCluster(b testing.TB, n int) ([]*knowledge.View, *topology.Graph) {
	b.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	g, err := topology.RandomConnected(n, 4, rng)
	if err != nil {
		b.Fatal(err)
	}
	views := make([]*knowledge.View, n)
	for i := range views {
		if views[i], err = knowledge.NewView(topology.NodeID(i), n, g.Neighbors(topology.NodeID(i)), nil, knowledge.Params{}); err != nil {
			b.Fatal(err)
		}
	}
	for p := 0; p < 12; p++ {
		for _, v := range views {
			v.BeginPeriod()
		}
		for i, v := range views {
			snap := v.Snapshot()
			for _, nb := range g.Neighbors(topology.NodeID(i)) {
				if rng.Float64() < 0.1 {
					continue
				}
				if err := views[nb].MergeSnapshot(snap); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	return views, g
}

// TestAllocsMergeSnapshot pins a heartbeat merge at n = 128: a count
// snapshot in which every estimate moved, merged into a view that already
// holds every record it names, overwrites each record's own estimator and
// allocates nothing; a link never heard of before is adopted into a slot
// of a link chunk and costs at most an amortised chunk or index growth.
func TestAllocsMergeSnapshot(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation pins do not hold under the race detector")
	}
	views, g := benchCluster(t, 128)
	v, nb := views[0], views[g.Neighbors(0)[0]]
	base := overWire(t, nb.Snapshot())
	if got := len(base.Procs) + len(base.Links); got < 340 {
		t.Fatalf("the neighbor's snapshot carries %d records, want the whole system (>= 340)", got)
	}
	// moved is the neighbor's snapshot as it would arrive r periods on:
	// every count grown, every record at distance 0 so each one is closer
	// than what the view holds and is adopted again.
	moved := func(r int) *knowledge.Snapshot {
		s := &knowledge.Snapshot{From: base.From,
			Procs: append([]knowledge.ProcRecord(nil), base.Procs...),
			Links: append([]knowledge.LinkRecord(nil), base.Links...)}
		for i := range s.Procs {
			s.Procs[i].Dist, s.Procs[i].Est.Succ = 0, 40+r
		}
		for i := range s.Links {
			s.Links[i].Dist, s.Links[i].Est.Succ = 0, 40+r
		}
		return s
	}
	const runs = 20
	snaps := make([]*knowledge.Snapshot, runs+2)
	for r := range snaps {
		snaps[r] = moved(r)
	}
	if err := v.MergeSnapshotKnowledgeOnly(snaps[0]); err != nil { // the view now holds every record
		t.Fatal(err)
	}
	next := 1
	if got := testing.AllocsPerRun(runs, func() {
		if err := v.MergeSnapshotKnowledgeOnly(snaps[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}); got != 0 {
		t.Errorf("re-merging %d moved records allocated %.1f times, want 0", len(base.Procs)+len(base.Links), got)
	}
	far := base.Procs[len(base.Procs)-1].ID // v is process 0: not this one
	if got := v.ProcEstimator(far).Observations(); got < 40+runs {
		t.Fatalf("process %d holds %d observations after the merges, want >= %d: nothing was adopted", far, got, 40+runs)
	}

	// One link no view has heard of, per run.
	fresh := make([]*knowledge.Snapshot, runs+1)
	for r := range fresh {
		a, b := topology.NodeID(r), topology.NodeID(127-r)
		for g.HasLink(a, b) {
			b--
		}
		fresh[r] = &knowledge.Snapshot{From: base.From, Links: []knowledge.LinkRecord{
			{Link: topology.NewLink(a, b), Dist: 3, Est: bayes.State{Succ: 7, Fail: 1}}}}
		if _, _, known := v.LossEstimate(fresh[r].Links[0].Link); known {
			t.Fatalf("link %v is already known", fresh[r].Links[0].Link)
		}
	}
	next = 0
	if got := testing.AllocsPerRun(runs, func() {
		if err := v.MergeSnapshotKnowledgeOnly(fresh[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}); got > 1 {
		t.Errorf("learning one link allocated %.1f times, want at most one (a chunk or index growth, amortised)", got)
	}
}

// TestAllocsDeltaAndEstimatedConfig pins the two per-period constructions
// at n = 128: a delta cut into a warm Snapshot allocates nothing (the
// DeltaSince wrapper pays for the snapshot and its two record slices,
// each sized before it is filled), and refilling a (graph, config) pair
// that held the same view allocates nothing.
func TestAllocsDeltaAndEstimatedConfig(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation pins do not hold under the race detector")
	}
	views, g := benchCluster(t, 128)
	v, nb := views[0], views[g.Neighbors(0)[0]]
	base := v.Version()
	nb.BeginPeriod()
	v.BeginPeriod()
	if err := v.MergeSnapshot(nb.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if d, ok := v.DeltaSince(base); !ok || len(d.Procs) == 0 || len(d.Links) == 0 {
		t.Fatalf("the period's delta is %+v (anchored: %v), want process and link records", d, ok)
	}
	if got := testing.AllocsPerRun(50, func() { v.DeltaSince(base) }); got > 3 {
		t.Errorf("DeltaSince allocated %.1f times, want at most 3", got)
	}
	// The cut goes to a package variable, so an inlined DeltaSince cannot
	// keep it on the stack.
	if got := testing.AllocsPerRun(50, func() { sinkSnapshot, _ = v.DeltaSince(0) }); got != 0 {
		t.Errorf("an unanchored DeltaSince allocated %.1f times, want 0", got)
	}
	var warm knowledge.Snapshot
	if !v.DeltaSinceInto(&warm, base) {
		t.Fatal("the period's delta is not anchored")
	}
	if got := testing.AllocsPerRun(50, func() { v.DeltaSinceInto(&warm, base) }); got != 0 {
		t.Errorf("DeltaSinceInto a warm Snapshot allocated %.1f times, want 0", got)
	}
	eg, ec := new(topology.Graph), new(config.Config)
	fill := func() {
		if err := v.EstimatedConfigInto(eg, ec); err != nil {
			t.Fatal(err)
		}
	}
	fill()
	if got := testing.AllocsPerRun(50, fill); got != 0 {
		t.Errorf("EstimatedConfigInto on a warm pair allocated %.1f times over %d links, want 0", got, eg.NumLinks())
	}
}

// TestIntoFormsReuseTheirSnapshot: one Snapshot carried across cuts — a
// full one, a smaller delta, an unanchored delta, a full one again —
// reads each time exactly what the allocating form returns, whatever the
// earlier cut left in its slices.
func TestIntoFormsReuseTheirSnapshot(t *testing.T) {
	views, g := benchCluster(t, 32)
	v, nb := views[0], views[g.Neighbors(0)[0]]
	var dst knowledge.Snapshot
	v.SnapshotInto(&dst)
	if want := v.Snapshot(); !reflect.DeepEqual(&dst, want) {
		t.Fatalf("SnapshotInto read %+v, Snapshot %+v", dst, want)
	}
	base := v.Version()
	nb.BeginPeriod()
	v.BeginPeriod()
	if err := v.MergeSnapshot(nb.Snapshot()); err != nil {
		t.Fatal(err)
	}
	want, ok := v.DeltaSince(base)
	if !ok || !v.DeltaSinceInto(&dst, base) {
		t.Fatal("the period's delta is not anchored")
	}
	if !reflect.DeepEqual(&dst, want) || len(want.Procs) >= len(v.Snapshot().Procs) {
		t.Fatalf("DeltaSinceInto over a full cut read %+v, DeltaSince %+v", dst, want)
	}
	kept := dst
	if v.DeltaSinceInto(&dst, v.Version()+1) || !reflect.DeepEqual(dst, kept) {
		t.Fatal("an unanchored DeltaSinceInto reported a cut or touched its snapshot")
	}
	v.SnapshotInto(&dst)
	if want := v.Snapshot(); !reflect.DeepEqual(&dst, want) {
		t.Fatalf("SnapshotInto over a delta read %+v, Snapshot %+v", dst, want)
	}
}

// TestRecycleBoundsAndClears: a recycled Snapshot is empty, its records
// are zeroed behind the length, and it keeps a record slice's array only
// up to KeepRecords.
func TestRecycleBoundsAndClears(t *testing.T) {
	views, _ := benchCluster(t, 32)
	var s knowledge.Snapshot
	views[0].SnapshotInto(&s)
	procs, links := s.Procs, s.Links
	s.Recycle()
	if s.From != 0 || s.Seq != 0 || len(s.Procs) != 0 || len(s.Links) != 0 ||
		cap(s.Procs) != cap(procs) || cap(s.Links) != cap(links) {
		t.Fatalf("recycled to %+v (caps %d, %d), want empty with caps %d, %d",
			s, cap(s.Procs), cap(s.Links), cap(procs), cap(links))
	}
	for i := range procs {
		if !reflect.DeepEqual(procs[i], knowledge.ProcRecord{}) {
			t.Fatalf("process record %d still reads %+v", i, procs[i])
		}
	}
	for i := range links {
		if !reflect.DeepEqual(links[i], knowledge.LinkRecord{}) {
			t.Fatalf("link record %d still reads %+v", i, links[i])
		}
	}
	big := knowledge.Snapshot{
		Procs: make([]knowledge.ProcRecord, 1, knowledge.KeepRecords+1),
		Links: make([]knowledge.LinkRecord, 1, knowledge.KeepRecords),
	}
	big.Recycle()
	if big.Procs != nil || cap(big.Links) != knowledge.KeepRecords {
		t.Errorf("recycled caps %d and %d, want the first dropped and the second %d kept",
			cap(big.Procs), cap(big.Links), knowledge.KeepRecords)
	}
}

var benchSizes = []struct {
	name string
	n    int
}{{"n=32", 32}, {"n=128", 128}}

var sinkRecords int

var sinkSnapshot *knowledge.Snapshot

func BenchmarkSnapshot(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(size.name, func(b *testing.B) {
			views, _ := benchCluster(b, size.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkRecords += len(views[0].Snapshot().Procs)
			}
		})
	}
}

// BenchmarkDeltaSince cuts the delta of one period's worth of change:
// BeginPeriod plus one neighbor's heartbeat, against the version before.
func BenchmarkDeltaSince(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(size.name, func(b *testing.B) {
			views, g := benchCluster(b, size.n)
			v, nb := views[0], views[g.Neighbors(0)[0]]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				base := v.Version()
				nb.BeginPeriod()
				v.BeginPeriod()
				if err := v.MergeSnapshot(nb.Snapshot()); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				d, ok := v.DeltaSince(base)
				if !ok {
					b.Fatal("delta not anchorable")
				}
				sinkRecords += len(d.Procs)
			}
		})
	}
}

// BenchmarkMergeSnapshotAt merges a neighbor's full snapshot as decoded
// from a count frame, the live node's per-heartbeat Event 1. After one
// BeginPeriod almost every record arrives unchanged and skips its
// estimator's refresh; the /moved variants merge a snapshot in which
// every record's counts changed since the last merge and every record is
// closer than the view's copy, so each one is adopted and refreshed —
// what a heartbeat costs while estimates are still moving.
func BenchmarkMergeSnapshotAt(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(size.name, func(b *testing.B) {
			views, g := benchCluster(b, size.n)
			v, nb := views[0], views[g.Neighbors(0)[0]]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				nb.BeginPeriod()
				snap := overWire(b, nb.Snapshot())
				b.StartTimer()
				if err := v.MergeSnapshotAt(snap, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(size.name+"/moved", func(b *testing.B) {
			views, g := benchCluster(b, size.n)
			v, nb := views[0], views[g.Neighbors(0)[0]]
			nb.BeginPeriod()
			snap := overWire(b, nb.Snapshot())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				snap.Seq++
				for j := range snap.Procs {
					snap.Procs[j].Dist = 0
					snap.Procs[j].Est.Succ++
				}
				for j := range snap.Links {
					snap.Links[j].Dist = 0
					snap.Links[j].Est.Succ++
				}
				b.StartTimer()
				if err := v.MergeSnapshotAt(snap, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEstimatedConfig materializes (G, C) from a view that spans the
// system: into fresh storage, as a caller without a workspace gets it, and
// into the pair the previous iteration filled, as a replan gets it.
func BenchmarkEstimatedConfig(b *testing.B) {
	for _, size := range benchSizes {
		views, _ := benchCluster(b, size.n)
		b.Run(size.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g, _, err := views[0].EstimatedConfig()
				if err != nil {
					b.Fatal(err)
				}
				sinkRecords += g.NumLinks()
			}
		})
		b.Run(size.name+"/reused", func(b *testing.B) {
			g, c := new(topology.Graph), new(config.Config)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := views[0].EstimatedConfigInto(g, c); err != nil {
					b.Fatal(err)
				}
				sinkRecords += g.NumLinks()
			}
		})
	}
}
