// Package broadcast implements the paper's probabilistic reliable
// broadcast protocols on the simulator:
//
//   - the optimal algorithm (Algorithm 1): the sender builds a Maximum
//     Reliability Tree from perfect knowledge of (G, C), runs optimize()
//     to allocate per-edge retransmission counts meeting the reliability
//     target K, and pushes the allocated copies down the tree; receivers
//     deliver on first receipt and forward down their own subtrees;
//   - the adaptive algorithm (Section 4): identical propagation logic,
//     but (G, C) comes from the process's knowledge view, which the
//     heartbeat activity keeps approximating. As the view converges to
//     the truth, the adaptive protocol's message counts converge to the
//     optimal ones — the paper's Definition 2 of adaptiveness, covered
//     by tests and by the Figure 4 experiments.
//
// The heartbeat activity is not implemented here: Runner runs each
// node's internal/heartbeat plane, the one the live node runs, and its
// frames cross the simulated network as bytes. What this package keeps
// of its own is the data plane's relay, dedup and plan.
//
// Per Algorithm 1 the data message carries the sender's MRT so every
// process forwards along the same tree; this implementation also carries
// the allocation vector ~m (the receiver would recompute exactly the same
// vector from the same tree — optimize() is deterministic — so shipping
// it is a pure CPU saving, noted here for fidelity).
package broadcast

import (
	"errors"
	"fmt"

	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/mrt"
	"adaptivecast/internal/optimize"
	"adaptivecast/internal/sim"
	"adaptivecast/internal/topology"
)

// DefaultK is the reliability target used throughout the paper's
// evaluation (reach all processes with probability 0.9999).
const DefaultK = 0.9999

// MsgID uniquely identifies a broadcast (origin process + local sequence).
type MsgID struct {
	Origin topology.NodeID
	Seq    uint64
}

// payload is what travels inside a data message.
type payload struct {
	ID    MsgID
	Tree  *mrt.Tree // the sender's MRT (shared immutably, as on a real wire it would be re-decoded)
	Alloc []int     // optimize() output for Tree at the sender's K
	Body  interface{}
	// HBSrc opportunistically piggybacks the immediate sender's knowledge
	// snapshot on the data message (paper Section 4.1: "this data can
	// also be opportunistically piggybacked in gossip messages, saving
	// communication bandwidth"). Each forwarder replaces it with its own
	// snapshot, so distortion accounting matches hop-by-hop heartbeats.
	// Nil when piggybacking is off or the sender runs the optimal
	// protocol.
	HBSrc *knowledge.Snapshot
}

// Delivery is one message handed to the application.
type Delivery struct {
	ID   MsgID
	From topology.NodeID // immediate sender (tree parent), not the origin
	Body interface{}
}

// Proc is one process running the reliable broadcast protocol. Create
// with NewOptimal or NewAdaptive and register it on the network yourself
// or via Runner.
type Proc struct {
	id        topology.NodeID
	net       *sim.Network
	k         float64
	view      *knowledge.View // nil for the optimal protocol
	piggyback bool            // attach a snapshot of the view to outgoing data messages
	nextSeq   uint64
	delivered map[MsgID]bool
	sink      func(Delivery)
	// FallbackFloods counts broadcasts that could not build an MRT from
	// the current knowledge (disconnected estimated topology) and flooded
	// neighbors instead — an adaptive-protocol liveness escape hatch for
	// the warm-up phase.
	FallbackFloods int
}

// NewOptimal returns a process using perfect knowledge of the network's
// ground-truth topology and configuration (Section 3).
func NewOptimal(net *sim.Network, id topology.NodeID, k float64, sink func(Delivery)) (*Proc, error) {
	return newProc(net, id, k, nil, sink)
}

// NewAdaptive returns a process whose MRTs are built from the given
// knowledge view (Section 4). The caller drives the view's heartbeat
// activity (see Runner).
func NewAdaptive(net *sim.Network, id topology.NodeID, k float64, view *knowledge.View, sink func(Delivery)) (*Proc, error) {
	if view == nil {
		return nil, errors.New("broadcast: adaptive process needs a knowledge view")
	}
	return newProc(net, id, k, view, sink)
}

func newProc(net *sim.Network, id topology.NodeID, k float64, view *knowledge.View, sink func(Delivery)) (*Proc, error) {
	if k <= 0 || k >= 1 {
		return nil, fmt.Errorf("broadcast: K=%v outside (0,1)", k)
	}
	if sink == nil {
		sink = func(Delivery) {}
	}
	p := &Proc{
		id:        id,
		net:       net,
		k:         k,
		view:      view,
		delivered: make(map[MsgID]bool),
		sink:      sink,
	}
	return p, nil
}

// ID returns the process ID.
func (p *Proc) ID() topology.NodeID { return p.id }

// Broadcast initiates a reliable broadcast of body (Algorithm 1 lines
// 1–4): build the MRT, allocate message counts, propagate, deliver
// locally. It returns the message ID and the total number of data
// messages the allocation will inject (Σ m[j], the paper's cost metric).
func (p *Proc) Broadcast(body interface{}) (MsgID, int, error) {
	p.nextSeq++
	id := MsgID{Origin: p.id, Seq: p.nextSeq}

	tree, alloc, err := p.plan()
	if err != nil {
		if p.view == nil {
			return MsgID{}, 0, err // perfect knowledge must always plan
		}
		// Adaptive warm-up: flood neighbors so the message still moves.
		p.FallbackFloods++
		p.deliverLocal(id, p.id, body)
		n := p.flood(id, body)
		return id, n, nil
	}

	p.deliverLocal(id, p.id, body)
	pl := payload{ID: id, Tree: tree, Alloc: alloc, Body: body}
	if err := p.propagate(pl); err != nil {
		return MsgID{}, 0, err
	}
	return id, optimize.Total(alloc), nil
}

// plan builds the MRT rooted at this process and the optimize()
// allocation, from perfect or approximated knowledge.
func (p *Proc) plan() (*mrt.Tree, []int, error) {
	g := p.net.Graph()
	cfg := p.net.Config()
	if p.view != nil {
		var err error
		g, cfg, err = p.view.EstimatedConfig()
		if err != nil {
			return nil, nil, err
		}
	}
	tree, err := mrt.Build(g, cfg, p.id)
	if err != nil {
		return nil, nil, err
	}
	lams, err := tree.Lambdas(cfg)
	if err != nil {
		return nil, nil, err
	}
	alloc, err := optimize.Greedy(lams, p.k, optimize.Options{})
	if err != nil {
		return nil, nil, err
	}
	return tree, alloc, nil
}

// propagate implements Algorithm 1 lines 8–12 at this process: send the
// allocated number of copies to the root of each direct subtree.
func (p *Proc) propagate(pl payload) error {
	if p.piggyback && p.view != nil {
		pl.HBSrc = p.view.Snapshot()
	}
	for _, child := range pl.Tree.Children(p.id) {
		copies := pl.Alloc[pl.Tree.EdgeOf(child)]
		for i := 0; i < copies; i++ {
			if err := p.net.Send(p.id, child, sim.Message{
				Kind:    sim.KindData,
				Size:    dataMessageSize,
				Payload: pl,
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// flood sends one copy to every neighbor (adaptive fallback only).
// It returns the number of messages sent.
func (p *Proc) flood(id MsgID, body interface{}) int {
	pl := payload{ID: id, Body: body}
	if p.piggyback && p.view != nil {
		pl.HBSrc = p.view.Snapshot()
	}
	nbs := p.net.Graph().Neighbors(p.id)
	for _, nb := range nbs {
		// Flooded messages carry no tree; receivers re-plan or re-flood.
		_ = p.net.Send(p.id, nb, sim.Message{
			Kind:    sim.KindData,
			Size:    dataMessageSize,
			Payload: pl,
		})
	}
	return len(nbs)
}

// dataMessageSize is the simulated size of one data message in bytes.
const dataMessageSize = 1024

// HandleMessage implements sim.Process (Algorithm 1 lines 5–7): deliver
// on first receipt and keep propagating along the carried tree.
func (p *Proc) HandleMessage(from topology.NodeID, msg sim.Message) {
	if msg.Kind != sim.KindData {
		return
	}
	pl, ok := msg.Payload.(payload)
	if !ok {
		return
	}
	// Piggybacked knowledge is merged on every copy, duplicates included:
	// each arrival carries the sender's snapshot, which only improves
	// local estimates (Section 4.1's bandwidth-saving remark).
	if p.view != nil && pl.HBSrc != nil {
		_ = p.view.MergeSnapshotKnowledgeOnly(pl.HBSrc)
	}
	if p.delivered[pl.ID] {
		return // duplicate copy of an already-delivered broadcast
	}
	p.deliverLocal(pl.ID, from, pl.Body)
	if pl.Tree == nil {
		// Flooded message (adaptive warm-up): keep flooding once.
		p.flood(pl.ID, pl.Body)
		return
	}
	// Forward along the sender's tree using the carried allocation.
	if err := p.propagate(pl); err != nil {
		// Tree links always exist in the real topology when knowledge is
		// truthful; with a stale view a link may be gone. Dropping is the
		// correct probabilistic behavior (the copies count as lost).
		return
	}
}

func (p *Proc) deliverLocal(id MsgID, from topology.NodeID, body interface{}) {
	p.delivered[id] = true
	p.sink(Delivery{ID: id, From: from, Body: body})
}

// HasDelivered reports whether the process delivered the given broadcast.
func (p *Proc) HasDelivered(id MsgID) bool { return p.delivered[id] }
