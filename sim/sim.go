// Package sim is the public facade over the deterministic discrete-event
// simulation stack: the event engine, the probabilistic network model
// (per-process crash and per-link loss probabilities), the reference
// gossip baseline, and the adaptive-broadcast runner that drives the same
// algorithmic components and heartbeat plane as the live runtime. It exists so tools and
// external users can run paper-style experiments — convergence studies,
// algorithm comparisons, Monte-Carlo baselines — against a stable import
// path, without reaching into internal packages.
package sim

import (
	"math/rand"

	ibroadcast "adaptivecast/internal/broadcast"
	iconfig "adaptivecast/internal/config"
	idataplane "adaptivecast/internal/dataplane"
	igossip "adaptivecast/internal/gossip"
	iknowledge "adaptivecast/internal/knowledge"
	isim "adaptivecast/internal/sim"
	itopology "adaptivecast/internal/topology"
)

// Re-exported simulation types. The aliases are identical to the types
// the internal packages exchange, so values flow freely between this
// package, adaptivecast, and adaptivecast/experiments.
type (
	// NodeID identifies a simulated process (same type as
	// adaptivecast.NodeID).
	NodeID = itopology.NodeID
	// Graph is the system topology (same type as adaptivecast.Topology).
	Graph = itopology.Graph
	// Time is simulated time, in heartbeat periods.
	Time = isim.Time
	// Kind labels simulated messages (data, ack, heartbeat, control).
	Kind = isim.Kind
	// Message is one simulated message.
	Message = isim.Message
	// Engine is the deterministic event queue driving a simulation.
	Engine = isim.Engine
	// Network models the probabilistic environment over a Config.
	Network = isim.Network
	// Options tunes the network model.
	Options = isim.Options
	// Stats counts network-level events per kind and per link.
	Stats = isim.Stats
	// Config is the ground truth: a topology plus per-process crash and
	// per-link loss probabilities.
	Config = iconfig.Config
	// Runner drives one adaptive-broadcast process per node of a network.
	Runner = ibroadcast.Runner
	// RunnerOptions tunes the runner.
	RunnerOptions = ibroadcast.RunnerOptions
	// Proc is one simulated broadcast process.
	Proc = ibroadcast.Proc
	// MsgID identifies one simulated broadcast.
	MsgID = ibroadcast.MsgID
	// Delivery is one simulated broadcast handed to the sink.
	Delivery = ibroadcast.Delivery
	// Criterion decides when a view counts as converged to the truth.
	Criterion = iknowledge.Criterion
	// GossipOptions tunes the reference gossip baseline.
	GossipOptions = igossip.Options
	// GossipResult is one gossip run's cost.
	GossipResult = igossip.Result
	// GossipMeanResult averages gossip cost over Monte-Carlo runs.
	GossipMeanResult = igossip.MeanResult
)

// Message kinds used across the simulated protocols.
const (
	KindData      = isim.KindData
	KindAck       = isim.KindAck
	KindHeartbeat = isim.KindHeartbeat
	KindControl   = isim.KindControl
)

// DefaultK is the paper's reliability target (0.9999).
const DefaultK = idataplane.DefaultK

// DefaultCriterion is the convergence criterion used throughout the
// paper's evaluation.
var DefaultCriterion = iknowledge.DefaultCriterion

// NewEngine returns a deterministic event engine seeded for
// reproducibility.
func NewEngine(seed int64) *Engine { return isim.NewEngine(seed) }

// NewNetwork builds the probabilistic network model for a ground-truth
// configuration on the given engine.
func NewNetwork(eng *Engine, cfg *Config, opts Options) *Network {
	return isim.NewNetwork(eng, cfg, opts)
}

// NewRunner wires one adaptive process per node of the network; sink
// (optional) observes every delivery.
func NewRunner(net *Network, opts RunnerOptions, sink func(NodeID, Delivery)) (*Runner, error) {
	return ibroadcast.NewRunner(net, opts, sink)
}

// RandomConnected returns a random connected topology over n processes
// with `conn` links per process on average.
func RandomConnected(n, conn int, rng *rand.Rand) (*Graph, error) {
	return itopology.RandomConnected(n, conn, rng)
}

// Uniform returns the ground-truth configuration assigning every process
// the crash probability p and every link the loss probability l.
func Uniform(g *Graph, p, l float64) (*Config, error) { return iconfig.Uniform(g, p, l) }

// GossipRun executes one reference-gossip broadcast to quiescence.
func GossipRun(cfg *Config, root NodeID, rng *rand.Rand, opts GossipOptions) (GossipResult, error) {
	return igossip.Run(cfg, root, rng, opts)
}

// GossipMeanCost averages the reference gossip's cost over `runs`
// Monte-Carlo executions.
func GossipMeanCost(cfg *Config, root NodeID, rng *rand.Rand, runs int, opts GossipOptions) (GossipMeanResult, error) {
	return igossip.MeanCost(cfg, root, rng, runs, opts)
}
