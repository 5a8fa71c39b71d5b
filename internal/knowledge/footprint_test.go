package knowledge_test

import (
	"math/rand"
	"runtime"
	"testing"

	"adaptivecast/internal/bayes"
	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/raceflag"
	"adaptivecast/internal/topology"
)

// viewBudget is what one view at n = 128 may retain once it holds an
// estimate for every process and every link of a 4-connected graph. It
// measured 88.6 KiB while estimators sat behind pointers and link records
// behind a pointer each, and 57.8 KiB with records by value in chunks.
const viewBudget = 60 << 10

// TestViewFootprint pins the memory a view keeps per roster: 32 views at
// n = 128 adopt 128 process and 256 link records from a snapshot off the
// wire, and the heap they retain, after a collection, is divided
// among them.
func TestViewFootprint(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's shadow memory inflates the heap")
	}
	const n, views = 128, 32
	g, err := topology.RandomConnected(n, 4, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	snap := &knowledge.Snapshot{From: 0, Seq: 1}
	for i := 0; i < n; i++ {
		snap.Procs = append(snap.Procs, knowledge.ProcRecord{ID: topology.NodeID(i), Dist: 1,
			Est: bayes.State{Succ: 40 + i, Fail: i % 3}})
	}
	for li := 0; li < g.NumLinks(); li++ {
		snap.Links = append(snap.Links, knowledge.LinkRecord{Link: g.Link(li), Dist: 1,
			Est: bayes.State{Succ: 90 + li, Fail: li % 5}})
	}
	snap = overWire(t, snap)
	if len(snap.Procs) != n || len(snap.Links) != 256 {
		t.Fatalf("the snapshot carries %d process and %d link records, want %d and 256", len(snap.Procs), len(snap.Links), n)
	}

	kept := make([]*knowledge.View, views)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range kept {
		self := topology.NodeID(i + 1) // the snapshot's sender is process 0
		v, err := knowledge.NewView(self, n, g.Neighbors(self), nil, knowledge.Params{})
		if err != nil {
			t.Fatal(err)
		}
		if err := v.MergeSnapshotKnowledgeOnly(snap); err != nil {
			t.Fatal(err)
		}
		kept[i] = v
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perView := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / views
	for _, v := range kept {
		if len(v.KnownLinks()) != 256 {
			t.Fatalf("view %d knows %d links, want 256", v.Self(), len(v.KnownLinks()))
		}
	}
	t.Logf("a view at n = %d retains %.1f KiB", n, float64(perView)/1024)
	if perView > viewBudget {
		t.Errorf("a view at n = %d retains %d bytes, budget %d", n, perView, viewBudget)
	}
}
