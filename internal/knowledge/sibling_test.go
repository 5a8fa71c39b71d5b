package knowledge

import (
	"testing"

	"adaptivecast/internal/bayes"
	"adaptivecast/internal/topology"
)

// TestSiblingHorizon walks one remote link record through each way a
// merge moves its mask, and checks the cut toward each neighbour after
// every step: the record stays out of the delta toward exactly the
// neighbours that last sent it at no greater distortion than ours (or
// supplied it), while a process record at equal distortion still ships,
// a full snapshot leaves nothing out, and BeginPeriod clears the mask
// once within LinkAgeTimeout periods.
func TestSiblingHorizon(t *testing.T) {
	const self = 1
	nbs := []topology.NodeID{0, 2, 3}
	v, err := NewView(self, 6, nbs, nil, Params{})
	if err != nil {
		t.Fatal(err)
	}
	v.BeginPeriod()
	base := v.Version()
	r := topology.NewLink(4, 5)
	est := bayes.State{Intervals: bayes.DefaultIntervals, Succ: 40, Fail: 4}
	from := func(nb topology.NodeID, dist int) {
		t.Helper()
		if err := v.MergeSnapshotKnowledgeOnly(&Snapshot{From: nb, Seq: 1,
			Links: []LinkRecord{{Link: r, Dist: dist, Est: est}},
			Procs: []ProcRecord{{ID: 5, Dist: dist, Est: est}}}); err != nil {
			t.Fatal(err)
		}
	}
	// check wants the link at distortion dist, left out toward exactly
	// the neighbours in holders.
	check := func(step string, dist int, holders ...topology.NodeID) {
		t.Helper()
		if _, d, _ := v.LossEstimate(r); d != dist {
			t.Fatalf("%s: the link is at distortion %d, want %d", step, d, dist)
		}
		for _, nb := range nbs {
			d, ok := v.DeltaTo(base, nb)
			if !ok {
				t.Fatal("delta not anchorable")
			}
			shipped := false
			for _, lr := range d.Links {
				shipped = shipped || lr.Link == r
			}
			held := false
			for _, h := range holders {
				held = held || h == nb
			}
			if shipped == held {
				t.Errorf("%s: toward %d the link ships %v, want %v", step, nb, shipped, !held)
			}
			procShipped := false
			for _, pr := range d.Procs {
				procShipped = procShipped || pr.ID == 5
			}
			if sup := topology.NodeID(v.procs[5].supplier); procShipped == (sup == nb) {
				t.Errorf("%s: toward %d process 5 ships %v; want it left out only toward its supplier %d", step, nb, procShipped, sup)
			}
		}
	}
	from(0, 2)
	check("learned from 0 at 2", 3, 0)
	from(2, 3)
	check("2 holds it at our distortion", 3, 0, 2)
	from(3, 4)
	check("3 holds it at a greater one", 3, 0, 2)
	from(2, 5)
	check("2's copy fell behind ours", 3, 0)
	from(2, 3)
	check("2 caught up", 3, 0, 2)
	from(3, 2)
	check("adopted from 3 at our distortion", 3, 0, 2, 3)
	from(2, 1)
	check("adopted from 2 below it", 2, 2)

	if full := v.Snapshot(); len(v.AppendOmitted(nil, full, 0)) != 0 {
		t.Error("a full snapshot leaves records out")
	}
	ls := v.link(v.interner.Lookup(r))
	cleared := 0
	for p := 1; p <= v.params.LinkAgeTimeout && cleared == 0; p++ {
		v.BeginPeriod()
		if ls.mask == 0 {
			cleared = p
		}
	}
	if cleared == 0 {
		t.Errorf("the mask still reads %b after %d periods, want it cleared", ls.mask, v.params.LinkAgeTimeout)
	}
}

// TestSiblingHorizonPastMaskSlots: only the first maskSlots neighbours
// get a mask bit; a later one holding a link at our distortion is still
// sent it, and is left out only of what it supplied.
func TestSiblingHorizonPastMaskSlots(t *testing.T) {
	const n = maskSlots + 4
	var nbs []topology.NodeID
	for i := 1; i < n-1; i++ {
		nbs = append(nbs, topology.NodeID(i))
	}
	v, err := NewView(0, n, nbs, nil, Params{})
	if err != nil {
		t.Fatal(err)
	}
	v.BeginPeriod()
	base := v.Version()
	r := topology.NewLink(n-2, n-1)
	est := bayes.State{Intervals: bayes.DefaultIntervals, Succ: 40, Fail: 4}
	first, last := nbs[0], nbs[len(nbs)-1]
	for _, nb := range []topology.NodeID{first, last} {
		if err := v.MergeSnapshotKnowledgeOnly(&Snapshot{From: nb, Seq: 1,
			Links: []LinkRecord{{Link: r, Dist: 1, Est: est}}}); err != nil {
			t.Fatal(err)
		}
	}
	// The link to last is incident, so it ships r at distortion 0 and
	// supplies it; mid, the 17th neighbour, holds it at ours.
	mid := nbs[maskSlots]
	if err := v.MergeSnapshotKnowledgeOnly(&Snapshot{From: mid, Seq: 1,
		Links: []LinkRecord{{Link: r, Dist: 2, Est: est}}}); err != nil {
		t.Fatal(err)
	}
	if v.peerBit(mid) != 0 || v.peerBit(first) == 0 {
		t.Fatalf("neighbour %d has bit %b and %d has %b; want none past the first %d", mid, v.peerBit(mid), first, v.peerBit(first), maskSlots)
	}
	for _, c := range []struct {
		to      topology.NodeID
		shipped bool
	}{{first, false}, {mid, true}, {last, false}} {
		d, _ := v.DeltaTo(base, c.to)
		shipped := false
		for _, lr := range d.Links {
			shipped = shipped || lr.Link == r
		}
		if shipped != c.shipped {
			t.Errorf("toward %d the link ships %v, want %v", c.to, shipped, c.shipped)
		}
	}
}

// TestSiblingHorizonRecoversAfterUpstreamLoss: a mask bit must not keep a
// record from a neighbour whose copy has aged behind ours. On the ring
// T–U–X–W–T the link U–X reaches T only from U and W only from X, both
// at distortion 1, so T and W hold it at equal distortion and each
// leaves it out of its deltas toward the other. Then the link T–U goes
// silent: T's copy ages to distortion 2 after LinkAgeTimeout periods,
// but aging ships nothing, so W never hears of it, while W keeps
// re-stamping its copy from X's fresh measurements. T must adopt W's
// copy within 2·LinkAgeTimeout periods of the silence — the age of its
// copy plus at most one mask expiry period. Views are stepped by hand:
// each period every view begins it and cuts one delta toward each
// neighbour against that neighbour's last merge, and then every frame
// is merged. The run must pass through the state only the expiry
// repairs: T holding U–X at a greater distortion than W while W's mask
// still keeps it from T.
func TestSiblingHorizonRecoversAfterUpstreamLoss(t *testing.T) {
	const tNode, uNode, xNode, wNode = 0, 1, 2, 3
	const silentAt = 20
	r := topology.NewLink(uNode, xNode)
	params := Params{DeltaEpsilon: -1} // every measurement re-stamps
	ageTimeout := params.withDefaults().LinkAgeTimeout
	bound := 2 * ageTimeout

	g, err := topology.Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	views := make([]*View, 4)
	for i := range views {
		id := topology.NodeID(i)
		if views[i], err = NewView(id, 4, g.Neighbors(id), nil, params); err != nil {
			t.Fatal(err)
		}
	}
	type frame struct {
		from, to topology.NodeID
		snap     *Snapshot
		ver      uint64
	}
	acked := map[[2]topology.NodeID]uint64{} // acked[{i, j}]: the version of i that j merged last
	silent := topology.NewLink(tNode, uNode)
	stale, got := 0, -1 // periods T's copy lagged W's behind W's mask; periods to adoption
	for p := 1; p <= silentAt+4*ageTimeout && got < 0; p++ {
		var frames []frame
		for i, v := range views {
			v.BeginPeriod()
			for _, nb := range g.Neighbors(topology.NodeID(i)) {
				from := topology.NodeID(i)
				if p > silentAt && topology.NewLink(from, nb) == silent {
					continue
				}
				snap, ok := v.DeltaTo(acked[[2]topology.NodeID{from, nb}], nb)
				if !ok {
					snap = v.Snapshot()
					v.Unmask(nb)
				}
				frames = append(frames, frame{from, nb, snap, v.Version()})
			}
		}
		for _, f := range frames {
			if err := views[f.to].MergeSnapshot(f.snap); err != nil {
				t.Fatal(err)
			}
			acked[[2]topology.NodeID{f.from, f.to}] = f.ver
		}
		tr, wr := views[tNode].link(views[tNode].interner.Lookup(r)), views[wNode].link(views[wNode].interner.Lookup(r))
		masked := wr.mask&views[wNode].peerBit(tNode) != 0
		switch {
		case p == silentAt:
			// The setup holds: both at distortion 1, each masked toward
			// the other.
			if tr.dist != 1 || wr.dist != 1 || tr.mask&views[tNode].peerBit(wNode) == 0 || !masked {
				t.Fatalf("before the silence T holds U–X at %d (mask %b) and W at %d (mask %b); want both at 1, masked toward each other",
					tr.dist, tr.mask, wr.dist, wr.mask)
			}
		case p > silentAt && tr.supplier == wNode:
			got = p - silentAt
		case p > silentAt && tr.dist > wr.dist && masked:
			stale++
		}
	}
	if stale == 0 {
		t.Error("T's copy never fell behind W's while W's mask kept W's from it: the run does not exercise the expiry")
	}
	if got < 0 || got > bound {
		t.Errorf("T adopted W's copy %d periods after its upstream fell silent (-1: never in %d); want within %d",
			got, 4*ageTimeout, bound)
	}
	t.Logf("T adopted W's copy %d periods after the silence (LinkAgeTimeout %d), after %d periods behind W's mask", got, ageTimeout, stale)
}

// TestSiblingHorizonForgetsRestartedNeighbour: a neighbour that restarts
// loses every copy its mask bits stood for. Sent our full snapshot, it
// holds our links one distortion step above ours with us as supplier,
// and split horizon keeps it from ever sending them back, so no merge
// clears its bits. Unmask, which the sender of a full snapshot calls,
// must: the next delta toward it carries the link we re-stamp, and it
// adopts that copy.
func TestSiblingHorizonForgetsRestartedNeighbour(t *testing.T) {
	const self, up, peer = 1, 0, 2
	params := Params{DeltaEpsilon: -1} // every new estimate re-stamps
	v, err := NewView(self, 5, []topology.NodeID{up, peer}, nil, params)
	if err != nil {
		t.Fatal(err)
	}
	r := topology.NewLink(3, 4)
	send := func(from topology.NodeID, seq uint64, dist, succ int) {
		t.Helper()
		if err := v.MergeSnapshot(&Snapshot{From: from, Seq: seq, Links: []LinkRecord{{Link: r, Dist: dist,
			Est: bayes.State{Intervals: bayes.DefaultIntervals, Succ: succ, Fail: 4}}}}); err != nil {
			t.Fatal(err)
		}
	}
	ships := func(base uint64) bool {
		t.Helper()
		d, ok := v.DeltaTo(base, peer)
		if !ok {
			t.Fatalf("base %d does not anchor a delta", base)
		}
		for _, lr := range d.Links {
			if lr.Link == r {
				return true
			}
		}
		return false
	}
	v.BeginPeriod()
	send(up, 1, 1, 40)   // learned from up at distortion 2
	send(peer, 1, 2, 50) // peer holds it at ours
	send(up, 2, 1, 41)   // re-stamped
	if ships(1) {
		t.Fatal("the delta toward a neighbour holding the link at our distortion carries it")
	}

	// peer restarts: it acks nothing, so it is sent the full snapshot and
	// unmasked, and holds the link at distortion 3 from us.
	restarted, err := NewView(peer, 5, []topology.NodeID{self}, nil, params)
	if err != nil {
		t.Fatal(err)
	}
	restarted.BeginPeriod()
	if err := restarted.MergeSnapshot(v.Snapshot()); err != nil {
		t.Fatal(err)
	}
	v.Unmask(peer)
	acked := v.Version()
	send(up, 3, 1, 42)
	if !ships(acked) {
		t.Fatal("the delta toward the restarted neighbour leaves out the link it re-stamped")
	}
	d, _ := v.DeltaTo(acked, peer)
	if err := restarted.MergeSnapshot(d); err != nil {
		t.Fatal(err)
	}
	want, _, _ := v.LossEstimate(r)
	if e, dist, _ := restarted.LossEstimate(r); dist != 3 || e != want {
		t.Errorf("the restarted neighbour holds the link at distortion %d, estimate %v; want ours, %v, at 3", dist, e, want)
	}
}
