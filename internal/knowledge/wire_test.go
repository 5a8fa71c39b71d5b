package knowledge_test

import (
	"math/rand"
	"testing"

	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/topology"
	"adaptivecast/internal/wire"
)

// overWire puts a snapshot through the codec, as a v5 frame shipping
// evidence counts or as a raw <= v3 frame.
func overWire(tb testing.TB, snap *knowledge.Snapshot, caps uint64) *knowledge.Snapshot {
	tb.Helper()
	b, err := wire.Encode(&wire.Frame{Kind: wire.FrameHeartbeat, Heartbeat: snap, Caps: caps})
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
// owner accumulated, so Observations() — and the RefineMinObs gate that
// reads it — no longer sees zero for everything learned over the wire.
// The raw layout cannot carry the count and still reads zero.
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
	for _, c := range []struct {
		name string
		caps uint64
		want int
	}{{"counts", wire.CapsCounts, 37}, {"raw", 0, 0}} {
		adopter, err := knowledge.NewView(1, 3, []topology.NodeID{0}, nil, knowledge.Params{})
		if err != nil {
			t.Fatal(err)
		}
		if err := adopter.MergeSnapshot(overWire(t, owner.Snapshot(), c.caps)); err != nil {
			t.Fatal(err)
		}
		est := adopter.ProcEstimator(0)
		if got := est.Observations(); got != c.want {
			t.Errorf("%s: adopted estimate reports %d observations, want %d", c.name, got, c.want)
		}
		if est.Mean() != owner.ProcEstimator(0).Mean() {
			t.Errorf("%s: adopted mean %v, owner's %v", c.name, est.Mean(), owner.ProcEstimator(0).Mean())
		}
	}
}

// TestReadoptionKeepsUnchangedEstimator: an estimate re-adopted with the
// counts the view already holds — the same owner's state arriving again,
// or over another equal-distance route — keeps its estimator instead of
// rebuilding it; changed counts replace it.
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
	if err := adopter.MergeSnapshot(overWire(t, snap, wire.CapsCounts)); err != nil {
		t.Fatal(err)
	}
	first := adopter.ProcEstimator(0)
	if err := adopter.MergeSnapshot(overWire(t, snap, wire.CapsCounts)); err != nil {
		t.Fatal(err)
	}
	if adopter.ProcEstimator(0) != first {
		t.Error("re-adopting unchanged counts rebuilt the estimator")
	}
	owner.BeginPeriod()
	if err := adopter.MergeSnapshot(overWire(t, owner.Snapshot(), wire.CapsCounts)); err != nil {
		t.Fatal(err)
	}
	if got := adopter.ProcEstimator(0); got == first || got.Observations() != 2 {
		t.Errorf("changed counts were not adopted: %d observations", got.Observations())
	}
}

// benchCluster grows n views over a random 4-connected graph by exchanging
// snapshots for a few lossy periods, so every view holds estimates for
// the whole system, and returns them with the graph.
func benchCluster(b *testing.B, n int) ([]*knowledge.View, *topology.Graph) {
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

var benchSizes = []struct {
	name string
	n    int
}{{"n=32", 32}, {"n=128", 128}}

var sinkRecords int

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
// from a count frame, the live node's per-heartbeat Event 1.
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
				snap := overWire(b, nb.Snapshot(), wire.CapsCounts)
				b.StartTimer()
				if err := v.MergeSnapshotAt(snap, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEstimatedConfig(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(size.name, func(b *testing.B) {
			views, _ := benchCluster(b, size.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g, _, err := views[0].EstimatedConfig()
				if err != nil {
					b.Fatal(err)
				}
				sinkRecords += g.NumLinks()
			}
		})
	}
}
