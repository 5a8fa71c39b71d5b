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
// Neither protocol is implemented here: a Proc drives the protocol core
// the live node runs (node.Core) over sim.Network, every frame crossing
// it as bytes, one message per copy, and joins and leaves (Runner.Grow,
// Runner.MarkDeparted) go through the core's announcements and epochs.
// What this package keeps of its own is the simulated clock and the
// crash model.
package broadcast

import (
	"adaptivecast/internal/dataplane"
	"adaptivecast/internal/node"
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

// Proc is one process running the reliable broadcast protocol: a
// node.Core driven over the simulated network. Create one with
// NewOptimal and register it on the network yourself, or let a Runner
// build adaptive ones.
type Proc struct {
	net  *sim.Network
	core *node.Core
	fx   node.Effects
	sc   wire.Scratch
	sink func(Delivery)
	// FallbackFloods counts broadcasts that could not build an MRT from
	// the current knowledge (disconnected estimated topology) and flooded
	// neighbors instead — an adaptive-protocol liveness escape hatch for
	// the warm-up phase.
	FallbackFloods int
	// DecodeErrors counts the received frames that did not decode, and
	// Outcomes what became of each one that did and of each leave the
	// process announced.
	DecodeErrors int
	Outcomes     [node.Adopted + 1]int
}

// NewOptimal returns a process using perfect knowledge of the network's
// ground-truth topology and configuration (Section 3).
func NewOptimal(net *sim.Network, id topology.NodeID, k float64, sink func(Delivery)) (*Proc, error) {
	core, err := node.NewOptimalCore(id, k, net.Graph(), net.Config())
	if err != nil {
		return nil, err
	}
	return newProc(net, core, sink), nil
}

func newProc(net *sim.Network, core *node.Core, sink func(Delivery)) *Proc {
	if sink == nil {
		sink = func(Delivery) {}
	}
	return &Proc{net: net, core: core, sink: sink}
}

// ID returns the process ID.
func (p *Proc) ID() topology.NodeID { return p.core.ID() }

// Core is the protocol core the process drives.
func (p *Proc) Core() *node.Core { return p.core }

// Broadcast initiates a reliable broadcast of body (Algorithm 1 lines
// 1–4): plan, deliver locally, and send each copy the plan allocates. It
// returns the message ID and the total number of data messages the
// allocation will inject (Σ m[j], the paper's cost metric). An adaptive
// process whose view cannot plan yet floods its neighbours instead, and
// returns the flood's fan-out.
func (p *Proc) Broadcast(body []byte) (MsgID, int, error) {
	fx := &p.fx
	p.core.Broadcast(body, fx)
	if fx.Plan.Err != nil {
		if p.core.View() == nil {
			return MsgID{}, 0, fx.Plan.Err // perfect knowledge must always plan
		}
		p.FallbackFloods++
	}
	if err := p.run(fx); err != nil {
		return MsgID{}, 0, err
	}
	return MsgID{Origin: p.ID(), Seq: fx.Seq}, fx.Planned, nil
}

// HandleMessage implements sim.Process: it decodes the frame and hands
// it to the core. A frame that does not decode is counted and dropped.
func (p *Proc) HandleMessage(from topology.NodeID, m sim.Message) {
	raw, _ := m.Payload.([]byte)
	f, err := p.sc.DecodeBorrow(raw)
	if err != nil {
		p.DecodeErrors++
		return
	}
	p.core.Receive(from, f, raw, &p.fx)
	p.Outcomes[p.fx.Outcome]++
	_ = p.run(&p.fx)
}

// announceLeave has the process apply and flood m, a leave built from
// the graph ledger (node.Core.AnnounceLeave).
func (p *Proc) announceLeave(m *wire.Membership) error {
	if err := p.core.AnnounceLeave(m, &p.fx); err != nil {
		return err
	}
	p.Outcomes[p.fx.Outcome]++
	return p.run(&p.fx)
}

// run carries out what the core decided: the control frames, the
// delivery, then one simulated message per data copy. A copy over a link
// the true topology no longer has — one a stale view's tree named — is
// lost like any other, and the other copies still leave.
func (p *Proc) run(fx *node.Effects) error {
	id := p.ID()
	for _, c := range fx.Control {
		_ = p.net.Send(id, c.To, sim.Message{Kind: sim.KindControl, Size: len(c.Frame), Payload: c.Frame})
	}
	if fx.Deliver {
		d := fx.Delivery
		p.sink(Delivery{ID: MsgID{Origin: d.Origin, Seq: d.Seq}, From: d.From, Body: d.Body})
	}
	if !fx.Out {
		return nil
	}
	// Payloads are never written to, so a relay that attaches no
	// snapshot of its own passes the bytes on as they came.
	frame := fx.Raw
	if frame == nil || fx.Snap != nil {
		var err error
		if frame, err = dataplane.AppendRelay(nil, fx.Msg, fx.Raw, fx.Snap); err != nil {
			return err
		}
	}
	for to, copies, ok := fx.Sends.Next(); ok; to, copies, ok = fx.Sends.Next() {
		for range copies {
			_ = p.net.Send(id, to, sim.Message{Kind: sim.KindData, Size: len(frame), Payload: frame})
		}
	}
	return nil
}

// HasDelivered reports whether the process delivered the given broadcast.
func (p *Proc) HasDelivered(id MsgID) bool { return p.core.Data().Seen().Seen(id.Origin, id.Seq) }
