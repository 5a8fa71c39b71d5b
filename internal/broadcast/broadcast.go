// Package broadcast runs the paper's probabilistic reliable broadcast
// protocols on the simulator:
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
// Neither protocol is implemented here: a Proc drives the data plane the
// live node runs (internal/dataplane), and Runner each node's heartbeat
// plane (internal/heartbeat). Both planes' frames — the data frame
// carries the sender's MRT as a parent vector and its allocation keyed by
// child, so no receiver replans — cross the simulated network as bytes,
// one message per copy, and each arrival is decoded for its plane to
// decide. What this package keeps of its own is the simulated clock, the
// crash model and membership churn (Runner.Grow, Runner.MarkDeparted).
package broadcast

import (
	"errors"
	"fmt"
	"math"

	"adaptivecast/internal/dataplane"
	"adaptivecast/internal/heartbeat"
	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/sim"
	"adaptivecast/internal/topology"
	"adaptivecast/internal/wire"
)

// MsgID uniquely identifies a broadcast (origin process + local sequence).
type MsgID struct {
	Origin topology.NodeID
	Seq    uint64
}

// Delivery is one message handed to the application.
type Delivery struct {
	ID   MsgID
	From topology.NodeID // immediate sender (tree parent), not the origin
	Body []byte          // aliases the frame it arrived in; read-only
}

// Proc is one process running the reliable broadcast protocol. Create
// with NewOptimal or NewAdaptive and register it on the network yourself
// or via Runner.
type Proc struct {
	id      topology.NodeID
	net     *sim.Network
	plane   *dataplane.Plane
	nextSeq uint64
	sink    func(Delivery)
	sc      wire.Scratch
	// hb is the heartbeat plane over the process's view when a Runner
	// drives one: inbound deltas go to it.
	hb *heartbeat.Plane
	// FallbackFloods counts broadcasts that could not build an MRT from
	// the current knowledge (disconnected estimated topology) and flooded
	// neighbors instead — an adaptive-protocol liveness escape hatch for
	// the warm-up phase.
	FallbackFloods int
}

// NewOptimal returns a process using perfect knowledge of the network's
// ground-truth topology and configuration (Section 3).
func NewOptimal(net *sim.Network, id topology.NodeID, k float64, sink func(Delivery)) (*Proc, error) {
	return newProc(net, id, k, dataplane.NewOptimal(id, k, net.Graph(), net.Config()), sink)
}

// NewAdaptive returns a process whose MRTs are built from the given
// knowledge view (Section 4). The caller drives the view's heartbeat
// activity (see Runner). With piggyback set, every data frame the process
// sends carries a snapshot of its view.
func NewAdaptive(net *sim.Network, id topology.NodeID, k float64, view *knowledge.View, piggyback bool, sink func(Delivery)) (*Proc, error) {
	if view == nil {
		return nil, errors.New("broadcast: adaptive process needs a knowledge view")
	}
	return newProc(net, id, k, dataplane.New(id, k, view, piggyback), sink)
}

func newProc(net *sim.Network, id topology.NodeID, k float64, plane *dataplane.Plane, sink func(Delivery)) (*Proc, error) {
	if math.IsNaN(k) || k <= 0 || k >= 1 {
		return nil, fmt.Errorf("broadcast: K=%v outside (0,1)", k)
	}
	if sink == nil {
		sink = func(Delivery) {}
	}
	return &Proc{id: id, net: net, plane: plane, sink: sink}, nil
}

// ID returns the process ID.
func (p *Proc) ID() topology.NodeID { return p.id }

// Broadcast initiates a reliable broadcast of body (Algorithm 1 lines
// 1–4): plan, deliver locally, and send each copy the plan allocates. It
// returns the message ID and the total number of data messages the
// allocation will inject (Σ m[j], the paper's cost metric). An adaptive
// process whose view cannot plan yet floods its neighbours instead, and
// returns the flood's fan-out.
func (p *Proc) Broadcast(body []byte) (MsgID, int, error) {
	p.nextSeq++
	id := MsgID{Origin: p.id, Seq: p.nextSeq}
	msg := wire.DataMsg{Origin: p.id, Seq: id.Seq, Root: p.id, Body: body}
	l := p.plane.Broadcast(&msg, p.net.Graph().Neighbors(p.id))
	if l.Plan.Err != nil {
		if !p.plane.Adaptive() {
			return MsgID{}, 0, l.Plan.Err // perfect knowledge must always plan
		}
		p.FallbackFloods++
	}
	p.sink(Delivery{ID: id, From: p.id, Body: body})
	frame, err := dataplane.AppendRelay(nil, &msg, nil, l.Snap)
	if err != nil {
		return MsgID{}, 0, err
	}
	p.send(l.Sends, frame)
	return id, l.Planned, nil
}

// send puts one simulated message per copy s names on the network. A copy
// over a link the true topology no longer has — one a stale view's tree
// named — is lost like any other, and the other copies still leave.
func (p *Proc) send(s dataplane.Sends, frame []byte) {
	for to, copies, ok := s.Next(); ok; to, copies, ok = s.Next() {
		for range copies {
			_ = p.net.Send(p.id, to, sim.Message{Kind: sim.KindData, Size: len(frame), Payload: frame})
		}
	}
}

// HandleMessage implements sim.Process: it decodes the frame, hands a
// heartbeat to the heartbeat plane, and delivers a data message on first
// receipt and relays it as the data plane decides (Algorithm 1 lines
// 5–7). A frame that does not decode, or that a plane refuses, is
// dropped like a lost one.
func (p *Proc) HandleMessage(from topology.NodeID, m sim.Message) {
	raw, _ := m.Payload.([]byte)
	f, err := p.sc.DecodeBorrow(raw)
	switch {
	case err != nil:
	case f.Kind == wire.FrameKnowledgeDelta && p.hb != nil:
		_ = p.hb.Receive(from, f.Delta)
	case f.Kind == wire.FrameData:
		p.receive(from, f.Data, raw)
	}
}

func (p *Proc) receive(from topology.NodeID, msg *wire.DataMsg, raw []byte) {
	rx := p.plane.Receive(from, msg, p.net.Graph().Neighbors(p.id))
	if !rx.Fresh {
		return
	}
	p.sink(Delivery{ID: MsgID{Origin: msg.Origin, Seq: msg.Seq}, From: from, Body: msg.Body})
	if !rx.Relay {
		return
	}
	// Payloads are never written to, so a relay that attaches no
	// snapshot of its own passes the bytes on as they came.
	frame := raw
	if rx.Snap != nil {
		var err error
		if frame, err = dataplane.AppendRelay(nil, msg, raw, rx.Snap); err != nil {
			return
		}
	}
	p.send(rx.Sends, frame)
}

// HasDelivered reports whether the process delivered the given broadcast.
func (p *Proc) HasDelivered(id MsgID) bool { return p.plane.Seen().Seen(id.Origin, id.Seq) }
