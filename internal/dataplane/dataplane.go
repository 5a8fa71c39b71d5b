// Package dataplane is the data plane of Algorithm 1, the reliable
// broadcast activity: an origin plans a Maximum Reliability Tree and the
// greedy allocation m[j] from what it knows of (G, C) and pushes the
// allocated copies down the tree; a receiver delivers on first receipt
// and forwards down its own subtree, or, for a message flooded before its
// origin could plan, re-floods it to every neighbour but the sender.
// Every runtime of the protocol runs this one plane — the live node under
// its lock, the discrete-event twin on virtual time — so both decide the
// same sends from the same frames.
//
// The plane does no I/O. Broadcast and Receive return a decision: whether
// to deliver, and who gets how many copies of which frame (Sends);
// AppendRelay encodes that frame. The caller puts the
// copies on its transport, delivers, and keeps its own locks, logs and
// counters. A Plane is not safe for concurrent use.
package dataplane

import (
	"errors"
	"fmt"

	"adaptivecast/internal/config"
	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/mrt"
	"adaptivecast/internal/optimize"
	"adaptivecast/internal/pool"
	"adaptivecast/internal/topology"
	"adaptivecast/internal/wire"
)

// DefaultK is the reliability target of the paper's evaluation: reach
// every process with probability 0.9999.
const DefaultK = 0.9999

// ErrOrigin refuses a data frame whose origin is outside the ID space: a
// forged origin would be delivered, relayed and kept in the dedup state.
var ErrOrigin = errors.New("dataplane: origin outside the ID space")

// Plan is one immutable broadcast plan: the MRT's link count and parent
// vector, the greedy allocation keyed by child node, and the planned
// message total Σ m[j] — or the error that kept the plane from planning
// (cached too, so repeated warm-up broadcasts don't re-derive the
// failure). Plans are shared across broadcasts; no field is ever mutated.
type Plan struct {
	Edges   int
	Parents []topology.NodeID
	Alloc   []int32
	Planned int
	Err     error
}

// Plane is one process's data plane. It plans from view (Section 4), or,
// view nil, from the true (truthG, truthC) (Section 3); plan is the plan
// for view version ver.
type Plane struct {
	self      topology.NodeID
	k         float64
	piggyback bool
	view      *knowledge.View
	truthG    *topology.Graph
	truthC    *config.Config
	plan      *Plan
	ver       uint64
	seen      Dedup
}

// New returns the plane of a process planning from its knowledge view.
// With piggyback set, every frame it sends carries a snapshot of the view
// (Section 4.1's bandwidth optimization).
func New(self topology.NodeID, k float64, view *knowledge.View, piggyback bool) *Plane {
	p := &Plane{self: self, k: k, view: view, piggyback: piggyback}
	p.seen.grow(view.NumProcs())
	return p
}

// NewOptimal returns the plane of a process with perfect knowledge of the
// ground truth (Section 3): it plans from g and c as they stand at each
// broadcast.
func NewOptimal(self topology.NodeID, k float64, g *topology.Graph, c *config.Config) *Plane {
	return &Plane{self: self, k: k, truthG: g, truthC: c}
}

// Seen is the plane's dedup state.
func (p *Plane) Seen() *Dedup { return &p.seen }

// Plan returns the broadcast plan for the view as it stands, reusing the
// cached plan while the view's version is unchanged; fresh reports
// whether this call built it. An optimal plane plans afresh every time.
func (p *Plane) Plan() (pl *Plan, fresh bool) {
	if p.view != nil && p.plan != nil && p.ver == p.view.Version() {
		return p.plan, false
	}
	pl, ver := p.Replan()
	if p.view != nil {
		p.plan, p.ver = pl, ver
	}
	return pl, true
}

// Replan derives a plan from the view as it stands, and reports the view
// version it stands at. (G, C) is materialized into a pooled workspace and
// the tree and allocation are built on it (≈ 180 µs at n = 128); the plan
// owns its vectors: nothing in it aliases the workspace, which goes back
// to the pool before the plan is used.
func (p *Plane) Replan() (pl *Plan, ver uint64) {
	ws := workspaces.Get()
	defer workspaces.Put(ws)
	g, c := p.truthG, p.truthC
	if p.view != nil {
		ver = p.view.Version()
		if err := p.view.EstimatedConfigInto(&ws.graph, &ws.config); err != nil {
			return &Plan{Err: err}, ver
		}
		g, c = &ws.graph, &ws.config
	}
	return ws.plan(g, c, p.self, p.k), ver
}

// workspace is the scaffolding of one replan: the estimated (G, C), the
// MRT builder, the tree's λ vector and the allocator's heap and result,
// ≈ 40 KB in ≈ 700 objects at n = 128 and garbage the moment the plan's
// vectors are copied out.
type workspace struct {
	graph     topology.Graph
	config    config.Config
	builder   mrt.Builder
	lambdas   []float64
	allocator optimize.Allocator
}

// workspaces recycles replan workspaces: one pool for the process, not a
// field of the plane, because a plane that kept its own would hold it
// between replans (fabric128-hb: heap 20.5 → 25.4 MB) and, where origins
// rotate, still find it cold.
var workspaces pool.Pool[workspace]

// plan derives (MRT, allocation) rooted at root from (g, c).
func (ws *workspace) plan(g *topology.Graph, c *config.Config, root topology.NodeID, k float64) *Plan {
	tree, err := ws.builder.Build(g, c, root)
	if err != nil {
		return &Plan{Err: err}
	}
	lams, err := tree.LambdasInto(ws.lambdas, c)
	if err != nil {
		return &Plan{Err: err}
	}
	ws.lambdas = lams
	alloc, err := ws.allocator.Greedy(lams, k, optimize.Options{})
	if err != nil {
		return &Plan{Err: err}
	}
	byNode, err := allocByNode(tree, alloc)
	if err != nil {
		return &Plan{Err: err}
	}
	return &Plan{
		Edges:   tree.NumEdges(),
		Parents: tree.Parents(),
		Alloc:   byNode,
		Planned: optimize.Total(alloc),
	}
}

// allocByNode re-keys an edge-indexed allocation by child node for the
// wire format, rejecting allocations peers would refuse to decode
// (wire.MaxAllocation) and tree edges that point outside the node range
// instead of silently truncating either.
func allocByNode(tree *mrt.Tree, alloc []int) ([]int32, error) {
	if len(alloc) != tree.NumEdges() {
		return nil, fmt.Errorf("dataplane: allocation covers %d edges, tree has %d", len(alloc), tree.NumEdges())
	}
	out := make([]int32, tree.NumNodes())
	for i := 0; i < tree.NumEdges(); i++ {
		child := tree.EdgeChild(i)
		if child < 0 || int(child) >= len(out) {
			return nil, fmt.Errorf("dataplane: tree edge %d leads to out-of-range node %d", i, child)
		}
		if alloc[i] < 0 || alloc[i] > wire.MaxAllocation {
			return nil, fmt.Errorf("dataplane: allocation %d for edge %d outside the wire format's [0,%d]", alloc[i], i, wire.MaxAllocation)
		}
		out[child] = int32(alloc[i])
	}
	return out, nil
}

// Sends is who gets how many copies of one data frame: this process's
// children in the frame's parent vector, each its m[j] (a child allocated
// none is skipped), or — the vector empty, the frame flooded — one copy
// to every neighbour of a roster but except. Next walks them.
type Sends struct {
	self    topology.NodeID
	parents []topology.NodeID
	alloc   []int32
	roster  []topology.NodeID
	except  topology.NodeID
	at      int // the next parent-vector index, or roster position, to look at
}

// Next returns the next peer and how many copies it gets: children in
// ascending ID, flood targets in roster order. ok is false once every
// send was returned.
func (s *Sends) Next() (to topology.NodeID, copies int, ok bool) {
	if len(s.parents) == 0 {
		for s.at < len(s.roster) {
			nb := s.roster[s.at]
			s.at++
			if nb != s.except {
				return nb, 1, true
			}
		}
		return topology.None, 0, false
	}
	for {
		child := mrt.NextChild(s.parents, s.self, topology.NodeID(s.at-1))
		if child == topology.None {
			return topology.None, 0, false
		}
		s.at = int(child) + 1
		// wire's validate, on encode and decode alike, holds AllocByNode
		// to Parents' length and each entry to [0, wire.MaxAllocation].
		if m := s.alloc[child]; m > 0 {
			return child, int(m), true
		}
	}
}

// Launch is the plane's decision on a broadcast this process originates:
// its plan (Err set while the view cannot plan, and the message floods),
// whether Broadcast built it, the data messages it costs (Σ m[j], or the
// flood's fan-out), the sends, and the snapshot the frame carries.
type Launch struct {
	Plan    *Plan
	Fresh   bool
	Planned int
	Sends   Sends
	Snap    *knowledge.Snapshot
}

// Broadcast launches msg, this process's broadcast msg.Seq, from the
// plan for the view as it stands (Algorithm 1 lines 1–4): it marks the
// broadcast seen and stamps msg with the plan's tree and allocation, or,
// when the view cannot plan yet, leaves msg tree-less to flood roster.
func (p *Plane) Broadcast(msg *wire.DataMsg, roster []topology.NodeID) (l Launch) {
	p.seen.Mark(p.self, msg.Seq)
	l.Plan, l.Fresh = p.Plan()
	if l.Planned = len(roster); l.Plan.Err == nil {
		msg.Parents, msg.AllocByNode, l.Planned = l.Plan.Parents, l.Plan.Alloc, l.Plan.Planned
	}
	l.Sends = Sends{self: p.self, parents: msg.Parents, alloc: msg.AllocByNode, roster: roster, except: topology.None}
	l.Snap = p.snapshot()
	return l
}

// Receipt is what the plane decided about an inbound data frame: a first
// sighting (Fresh) is delivered, and relayed to Sends when Relay is set,
// carrying Snap when the plane piggybacks. Refused is why the frame was
// dropped whole (ErrOrigin) or delivered but not relayed (its parent
// vector is not a tree); MergeErr is the view's refusal of the frame's
// piggybacked snapshot, which costs the message nothing.
type Receipt struct {
	Fresh, Relay      bool
	Sends             Sends
	Snap              *knowledge.Snapshot
	Refused, MergeErr error
}

// Receive decides a data message that arrived from `from` (Algorithm 1
// lines 5–7). Piggybacked knowledge is merged on every copy, duplicates
// included: each arrival carries the sender's current view. A tree-less
// (flooded) message is re-flooded to roster but the sender, who by
// construction already has it; a tree that predates this process's
// membership leaves it nothing to forward.
func (p *Plane) Receive(from topology.NodeID, msg *wire.DataMsg, roster []topology.NodeID) (rx Receipt) {
	if msg.Origin < 0 || int(msg.Origin) >= p.numProcs() {
		rx.Refused = ErrOrigin
		return rx
	}
	if msg.Piggyback != nil && p.view != nil {
		rx.MergeErr = p.view.MergeSnapshotKnowledgeOnly(msg.Piggyback)
	}
	if !p.seen.Mark(msg.Origin, msg.Seq) {
		return rx
	}
	rx.Fresh = true
	if len(msg.Parents) > 0 {
		rx.Refused = mrt.CheckParents(msg.Root, msg.Parents)
	}
	rx.Relay = rx.Refused == nil && (len(msg.Parents) == 0 || int(p.self) < len(msg.Parents))
	if rx.Relay {
		rx.Sends = Sends{self: p.self, parents: msg.Parents, alloc: msg.AllocByNode, roster: roster, except: from}
		rx.Snap = p.snapshot()
	}
	return rx
}

func (p *Plane) numProcs() int {
	if p.view != nil {
		return p.view.NumProcs()
	}
	return p.truthG.NumNodes()
}

// snapshot is the knowledge a frame this process sends carries: its view,
// when it piggybacks.
func (p *Plane) snapshot() *knowledge.Snapshot {
	if !p.piggyback {
		return nil
	}
	return p.view.Snapshot()
}

// AppendRelay appends msg's encoded data frame to dst, carrying snap —
// the sender's knowledge — in place of whatever snapshot msg carries when
// snap is set: each hop attaches its own view, so distortion accounting
// matches hop-by-hop heartbeats. For msg decoded from raw, raw's
// unchanged prefix (header through body) and suffix (epoch) are spliced
// around snap, and without snap raw is appended as it came: a relay is
// never re-encoded. Without raw — an origin's frame — msg is encoded
// afresh.
func AppendRelay(dst []byte, msg *wire.DataMsg, raw []byte, snap *knowledge.Snapshot) ([]byte, error) {
	if raw != nil {
		if snap == nil {
			return append(dst, raw...), nil
		}
		if b, err := wire.SpliceDataPiggyback(dst, raw, snap); err == nil {
			return b, nil
		}
		// A frame that decoded but won't splice shouldn't exist; fall
		// back to the full re-encode rather than dropping the relay.
	}
	if snap != nil {
		cp := *msg
		cp.Piggyback = snap
		msg = &cp
	}
	return wire.AppendFrame(dst, &wire.Frame{Kind: wire.FrameData, Data: msg})
}
