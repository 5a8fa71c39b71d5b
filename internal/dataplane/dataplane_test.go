package dataplane

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"adaptivecast/internal/bayes"
	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/mrt"
	"adaptivecast/internal/optimize"
	"adaptivecast/internal/raceflag"
	"adaptivecast/internal/topology"
	"adaptivecast/internal/wire"
)

// send is one entry of a Sends: copies of the frame toward a peer.
type send struct {
	to     topology.NodeID
	copies int
}

func collect(s Sends) []send {
	var out []send
	for to, copies, ok := s.Next(); ok; to, copies, ok = s.Next() {
		out = append(out, send{to, copies})
	}
	return out
}

// plane is process self's plane over g with an untaught view.
func plane(t testing.TB, g *topology.Graph, self topology.NodeID) *Plane {
	t.Helper()
	view, err := knowledge.NewView(self, g.NumNodes(), g.Neighbors(self), nil, knowledge.Params{})
	if err != nil {
		t.Fatal(err)
	}
	return New(self, DefaultK, view, false)
}

// taught is plane's with a view one neighbour's snapshot handed an
// estimate of every process and link of g: enough to plan over g. The
// estimates are drawn from rng, or, rng nil, the same for every process
// and for every link.
func taught(t testing.TB, g *topology.Graph, self topology.NodeID, rng *rand.Rand) *Plane {
	t.Helper()
	p := plane(t, g, self)
	est := func(fail int) bayes.State {
		if rng != nil {
			return bayes.State{Succ: 200 + rng.Intn(400), Fail: rng.Intn(60)}
		}
		return bayes.State{Succ: 400, Fail: fail}
	}
	s := knowledge.Snapshot{From: g.Neighbors(self)[0], Seq: 1}
	for v := range g.NumNodes() {
		s.Procs = append(s.Procs, knowledge.ProcRecord{ID: topology.NodeID(v), Est: est(2)})
	}
	for _, l := range g.Links() {
		s.Links = append(s.Links, knowledge.LinkRecord{Link: l, Est: est(40)})
	}
	if err := p.view.MergeSnapshotKnowledgeOnly(&s); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestReceiveDecides pins the receipt rule on process 1 of six: a tree
// frame goes to 1's children in ascending ID with their m[j], a child
// allocated none skipped; a flooded frame to every neighbour but its
// sender; a second copy is not fresh; a forged origin is refused whole;
// and a parent vector that is no tree is delivered but not relayed.
func TestReceiveDecides(t *testing.T) {
	g := topology.New(6)
	for _, nb := range []topology.NodeID{0, 2, 3, 5} {
		if _, err := g.AddLink(1, nb); err != nil {
			t.Fatal(err)
		}
	}
	p := plane(t, g, 1)
	roster := g.Neighbors(1)
	parents := []topology.NodeID{topology.None, 0, 1, 1, 3, 1}
	alloc := []int32{0, 2, 4, 0, 1, 3}

	rx := p.Receive(0, &wire.DataMsg{Origin: 0, Seq: 1, Root: 0, Parents: parents, AllocByNode: alloc}, roster)
	if !rx.Fresh || !rx.Relay || rx.Refused != nil {
		t.Fatalf("tree frame: %+v, want a fresh relay", rx)
	}
	if got, want := collect(rx.Sends), []send{{2, 4}, {5, 3}}; !slices.Equal(got, want) {
		t.Errorf("tree frame sends %v, want %v", got, want)
	}
	if rx := p.Receive(2, &wire.DataMsg{Origin: 0, Seq: 1, Root: 0, Parents: parents, AllocByNode: alloc}, roster); rx.Fresh || rx.Relay {
		t.Errorf("second copy: %+v, want neither delivered nor relayed", rx)
	}

	rx = p.Receive(3, &wire.DataMsg{Origin: 4, Seq: 1, Root: 4}, roster)
	if !rx.Fresh || !rx.Relay {
		t.Fatalf("flooded frame: %+v, want a fresh relay", rx)
	}
	if got, want := collect(rx.Sends), []send{{0, 1}, {2, 1}, {5, 1}}; !slices.Equal(got, want) {
		t.Errorf("flooded frame sends %v, want %v (every neighbour but the sender)", got, want)
	}

	if rx := p.Receive(0, &wire.DataMsg{Origin: 6, Seq: 1, Root: 6}, roster); rx.Fresh || !errors.Is(rx.Refused, ErrOrigin) {
		t.Errorf("forged origin: %+v, want refused with ErrOrigin", rx)
	}
	if s, w := p.Seen().Size(); s != 6 || w != 0 {
		t.Errorf("dedup state holds %d origins and %d windows, want 6 and 0", s, w)
	}

	cycle := []topology.NodeID{topology.None, 2, 1, 1, 1, 1}
	rx = p.Receive(0, &wire.DataMsg{Origin: 0, Seq: 2, Root: 0, Parents: cycle, AllocByNode: alloc}, roster)
	if !rx.Fresh || rx.Relay || rx.Refused == nil {
		t.Errorf("cyclic parent vector: %+v, want delivered, refused, not relayed", rx)
	}
}

// TestBroadcastPlansOrFloods: an origin whose view spans no tree yet
// floods every neighbour and leaves the message tree-less; once taught,
// it stamps the message with its plan, sends each child its m[j], and
// hands out the same plan until the view moves.
func TestBroadcastPlansOrFloods(t *testing.T) {
	g, err := topology.Ring(6)
	if err != nil {
		t.Fatal(err)
	}
	p := plane(t, g, 0)
	msg := wire.DataMsg{Origin: 0, Seq: 1, Root: 0}
	l := p.Broadcast(&msg, g.Neighbors(0))
	if l.Plan.Err == nil || msg.Parents != nil || l.Planned != 2 {
		t.Fatalf("untaught origin: plan error %v, parents %v, planned %d; want a flood of 2", l.Plan.Err, msg.Parents, l.Planned)
	}
	if got, want := collect(l.Sends), []send{{1, 1}, {5, 1}}; !slices.Equal(got, want) {
		t.Errorf("flood sends %v, want %v", got, want)
	}

	p = taught(t, g, 0, nil)
	msg = wire.DataMsg{Origin: 0, Seq: 1, Root: 0}
	l = p.Broadcast(&msg, g.Neighbors(0))
	if l.Plan.Err != nil || !l.Fresh || !slices.Equal(msg.Parents, l.Plan.Parents) {
		t.Fatalf("taught origin: %+v, want a fresh plan stamped on the message", l)
	}
	sends := collect(l.Sends)
	for _, s := range sends {
		if msg.Parents[s.to] != 0 || s.copies != int(msg.AllocByNode[s.to]) {
			t.Errorf("send %v is no child of the origin with its m[j]", s)
		}
	}
	total := 0
	for _, m := range msg.AllocByNode {
		total += int(m)
	}
	if len(sends) == 0 || total != l.Planned {
		t.Errorf("origin sends %v; the stamped allocation totals %d, planned %d", sends, total, l.Planned)
	}
	msg = wire.DataMsg{Origin: 0, Seq: 2, Root: 0}
	if again := p.Broadcast(&msg, g.Neighbors(0)); again.Fresh || again.Plan != l.Plan {
		t.Errorf("an unchanged view replanned")
	}
	if !p.Seen().Seen(0, 1) || !p.Seen().Seen(0, 2) {
		t.Error("the origin's own broadcasts are not marked seen")
	}
}

// reference is the plan the package-level pipeline — mrt.Build,
// Tree.Lambdas, optimize.Greedy — computes on storage nobody used before,
// from p's view as it stands.
func reference(t *testing.T, p *Plane) *Plan {
	t.Helper()
	g, c, err := p.view.EstimatedConfig()
	if err != nil {
		t.Fatal(err)
	}
	tree, err := mrt.Build(g, c, p.self)
	if err != nil {
		t.Fatal(err)
	}
	lams, err := tree.Lambdas(c)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := optimize.Greedy(lams, p.k, optimize.Options{})
	if err != nil {
		t.Fatal(err)
	}
	byNode := make([]int32, tree.NumNodes())
	for i, m := range alloc {
		byNode[tree.EdgeChild(i)] = int32(m)
	}
	return &Plan{Edges: tree.NumEdges(), Parents: tree.Parents(), Alloc: byNode, Planned: optimize.Total(alloc)}
}

// TestPlanOnReusedWorkspace: one workspace, used in turn, plans 128
// processes and then 24 — materializing each view into the (G, C) the
// last plan left — and each plan equals the reference pipeline's; a plan
// handed out earlier shares no memory with the workspace, so it reads
// the same after the workspace planned something else.
func TestPlanOnReusedWorkspace(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	big, err := topology.RandomConnected(128, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	small, err := topology.RandomConnected(24, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	bigP, smallP := taught(t, big, 7, rng), taught(t, small, 3, rng)

	ws := new(workspace)
	fill := func(p *Plane) *Plan {
		if err := p.view.EstimatedConfigInto(&ws.graph, &ws.config); err != nil {
			t.Fatal(err)
		}
		pl := ws.plan(&ws.graph, &ws.config, p.self, p.k)
		if pl.Err != nil {
			t.Fatal(pl.Err)
		}
		return pl
	}
	first := fill(bigP)
	if want := reference(t, bigP); !reflect.DeepEqual(first, want) {
		t.Fatalf("plan over 128 processes on a new workspace: %+v, reference: %+v", first, want)
	}
	kept := &Plan{Edges: first.Edges, Planned: first.Planned,
		Parents: slices.Clone(first.Parents), Alloc: slices.Clone(first.Alloc)}
	for round := range 2 {
		if got, want := fill(smallP), reference(t, smallP); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: plan over 24 processes on the workspace that held 128: %+v, reference: %+v", round, got, want)
		}
		if got, want := fill(bigP), reference(t, bigP); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: plan over 128 processes on the workspace that held 24: %+v, reference: %+v", round, got, want)
		}
		if !reflect.DeepEqual(first, kept) {
			t.Fatalf("round %d: the first plan changed when its workspace was reused: %+v, was %+v", round, first, kept)
		}
	}
}

// TestAppendRelayMatchesEncode: a relay spliced around the relaying
// process's snapshot is the frame encoding the message afresh with that
// snapshot would give, a relay with no snapshot of its own is the
// inbound frame as it came, and whichever it is lands after what dst
// held.
func TestAppendRelayMatchesEncode(t *testing.T) {
	g, err := topology.Ring(6)
	if err != nil {
		t.Fatal(err)
	}
	p := taught(t, g, 2, nil)
	msg := &wire.DataMsg{Origin: 0, Seq: 9, Root: 0, Parents: []topology.NodeID{topology.None, 0, 1, 2, 5, 0},
		AllocByNode: []int32{0, 2, 2, 3, 1, 2}, Body: []byte("relayed"), Epoch: 4}
	raw, err := AppendRelay(nil, msg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap := p.view.Snapshot()
	spliced, err := AppendRelay(nil, msg, raw, snap)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := AppendRelay(nil, msg, nil, snap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(spliced, fresh) {
		t.Errorf("spliced relay %x, fresh encode %x", spliced, fresh)
	}
	// Every case appends to dst: the inbound frame as it came, the splice
	// around a snapshot, and an origin's frame encoded afresh.
	for name, c := range map[string]struct {
		raw  []byte
		snap *knowledge.Snapshot
		want []byte
	}{
		"inbound frame":   {raw, nil, raw},
		"piggyback":       {raw, snap, fresh},
		"fresh encode":    {nil, nil, raw},
		"fresh piggyback": {nil, snap, fresh},
	} {
		got, err := AppendRelay([]byte("dst:"), msg, c.raw, c.snap)
		if err != nil {
			t.Fatal(err)
		}
		if want := append([]byte("dst:"), c.want...); !bytes.Equal(got, want) {
			t.Errorf("%s: relay %x, want the frame appended to dst: %x", name, got, want)
		}
	}
}

// TestAllocsPlane: a warm origin broadcast, its plan a cache hit, and a
// warm relay decision each allocate nothing.
func TestAllocsPlane(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation pins do not hold under the race detector")
	}
	g, err := topology.Ring(16)
	if err != nil {
		t.Fatal(err)
	}
	origin, relay := taught(t, g, 0, nil), plane(t, g, 1)
	roster := g.Neighbors(0)
	var msg wire.DataMsg
	seq := uint64(0)
	broadcast := func() {
		seq++
		msg = wire.DataMsg{Origin: 0, Seq: seq, Root: 0}
		if l := origin.Broadcast(&msg, roster); l.Plan.Err != nil {
			t.Fatal(l.Plan.Err)
		}
	}
	broadcast()
	if got := testing.AllocsPerRun(100, broadcast); got != 0 {
		t.Errorf("a warm origin broadcast allocated %.2f times, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		rx := relay.Receive(0, &msg, g.Neighbors(1))
		for _, _, ok := rx.Sends.Next(); ok; _, _, ok = rx.Sends.Next() {
		}
		msg.Seq++
	}); got != 0 {
		t.Errorf("a warm relay decision allocated %.2f times, want 0", got)
	}
}
