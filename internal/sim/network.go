package sim

import (
	"fmt"

	"adaptivecast/internal/config"
	"adaptivecast/internal/topology"
)

// Kind tags simulated messages so the statistics can separate data traffic
// from acknowledgments and heartbeats, as the paper's figures do.
type Kind uint8

// Message kinds used across the protocols.
const (
	KindData Kind = iota + 1
	KindHeartbeat
	KindControl
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindHeartbeat:
		return "heartbeat"
	case KindControl:
		return "control"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Message is one simulated message. Size is the simulated wire size in
// bytes (the paper models 50 KB heartbeats; we track bytes analytically
// instead of padding buffers). Payload is protocol-defined and must be
// treated as immutable by receivers, since no copying happens in-process.
type Message struct {
	Kind    Kind
	Size    int
	Payload interface{}
}

// Process is a protocol endpoint attached to the network.
type Process interface {
	// HandleMessage is invoked when a message survives the sender-crash,
	// link-loss and receiver-crash sampling and reaches this process.
	HandleMessage(from topology.NodeID, msg Message)
}

// ProcessFunc adapts a function to the Process interface.
type ProcessFunc func(from topology.NodeID, msg Message)

// HandleMessage implements Process.
func (f ProcessFunc) HandleMessage(from topology.NodeID, msg Message) { f(from, msg) }

// Options tunes the network model.
type Options struct {
	// Latency is the per-hop delivery delay. Zero is allowed (messages
	// deliver at the same virtual time, after already-pending events).
	Latency Time
	// DisableCrashSampling turns off the per-step crash sampling at send
	// and receive; only explicit Crash/Recover downtime then applies.
	// Used by experiments that model crash effects elsewhere.
	DisableCrashSampling bool
}

// Network simulates the lossy topology: it applies the paper's
// probabilistic failure model to every transmission and maintains the
// message statistics the experiments report.
type Network struct {
	eng    *Engine
	graph  *topology.Graph
	cfg    *config.Config
	opts   Options
	procs  []Process
	down   []bool // explicit crash state (failure injection)
	faults FaultModel
	stats  Stats
}

// NewNetwork builds a network over g with ground-truth failure
// configuration cfg. Processes are registered afterwards with Register.
func NewNetwork(eng *Engine, cfg *config.Config, opts Options) *Network {
	g := cfg.Graph()
	return &Network{
		eng:   eng,
		graph: g,
		cfg:   cfg,
		opts:  opts,
		procs: make([]Process, g.NumNodes()),
		down:  make([]bool, g.NumNodes()),
		stats: newStats(),
	}
}

// Engine returns the underlying event engine.
func (n *Network) Engine() *Engine { return n.eng }

// Graph returns the simulated topology.
func (n *Network) Graph() *topology.Graph { return n.graph }

// Config returns the ground-truth failure configuration.
func (n *Network) Config() *config.Config { return n.cfg }

// Stats returns the live statistics collector.
func (n *Network) Stats() *Stats { return &n.stats }

// SetFaultModel installs (or, with nil, removes) the adversarial fault
// model consulted on every transmission, layered on top of the
// ground-truth config loss.
func (n *Network) SetFaultModel(m FaultModel) { n.faults = m }

// Register attaches p as the protocol endpoint of process id.
func (n *Network) Register(id topology.NodeID, p Process) error {
	if id < 0 || int(id) >= len(n.procs) {
		return fmt.Errorf("sim: process %d out of range", id)
	}
	n.procs[id] = p
	return nil
}

// Send transmits msg from one process to a direct neighbor, applying the
// probabilistic failure model. The send is always counted in the
// statistics (the sender pays for the transmission whether or not it
// arrives). Sends from explicitly crashed processes are suppressed and
// not counted, since a crashed process executes no normal steps.
func (n *Network) Send(from, to topology.NodeID, msg Message) error {
	linkIdx := n.graph.LinkIndex(from, to)
	if linkIdx < 0 {
		return fmt.Errorf("sim: no link between %d and %d", from, to)
	}
	if n.down[from] {
		return nil
	}
	n.stats.recordSend(msg)

	rng := n.eng.Rand()
	if !n.opts.DisableCrashSampling && rng.Float64() < n.cfg.Crash(from) {
		return nil // sender executed a crashed step during the send
	}
	if rng.Float64() < n.cfg.Loss(linkIdx) {
		return nil // the link lost the message
	}
	delay := n.opts.Latency
	if n.faults != nil {
		drop, extra := n.faults.Transmit(n.eng.Now(), from, to, rng)
		if drop {
			n.stats.faultDrops++
			return nil // the adversary ate the message
		}
		delay += extra
	}
	n.eng.Schedule(delay, func() {
		if n.down[to] {
			return
		}
		if !n.opts.DisableCrashSampling && n.eng.Rand().Float64() < n.cfg.Crash(to) {
			return // receiver executed a crashed step during delivery
		}
		p := n.procs[to]
		if p == nil {
			return
		}
		n.stats.delivered++
		p.HandleMessage(from, msg)
	})
	return nil
}

// After schedules fn on the engine; sugar so protocols only hold the
// network.
func (n *Network) After(delay Time, fn func()) { n.eng.Schedule(delay, fn) }

// Crash marks a process as down for failure-injection scenarios: it stops
// receiving and sending until Recover. This is the explicit long-crash
// model layered on top of the per-step crash probability.
func (n *Network) Crash(id topology.NodeID) { n.down[id] = true }

// Recover brings an explicitly crashed process back up.
func (n *Network) Recover(id topology.NodeID) { n.down[id] = false }

// Up reports whether a process is not explicitly crashed.
func (n *Network) Up(id topology.NodeID) bool { return !n.down[id] }

// Grow resizes the per-process state to match the graph after nodes
// were added (churn in the twin). New processes start unregistered and
// up. Callers must have grown the config first (config.Grow) so the loss
// slice is aligned.
func (n *Network) Grow() {
	for len(n.procs) < n.graph.NumNodes() {
		n.procs = append(n.procs, nil)
		n.down = append(n.down, false)
	}
}
