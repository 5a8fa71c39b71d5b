package adaptivecast

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"adaptivecast/internal/wire"
)

// ClusterConfig configures an in-process cluster.
type ClusterConfig struct {
	// Topology is the system graph (required, connected).
	Topology *Topology
	// K is the per-broadcast reliability target (default DefaultK).
	K float64
	// HeartbeatEvery is δ, the knowledge-exchange period (default 1s;
	// tests and examples often use a few milliseconds).
	HeartbeatEvery time.Duration
	// LinkLoss injects per-link loss probabilities into the in-process
	// fabric, keyed by canonical link. Missing links are lossless.
	LinkLoss map[Link]float64
	// Seed drives the fabric's loss sampling (default 1).
	Seed int64
	// SendCost charges every node's transport flushes a simulated
	// per-call kernel copy of this many bytes (see FabricOptions.SendCost;
	// default 0, free). Mainly for saturation benchmarks.
	SendCost int
	// DeliveryBuffer sizes each node's delivery channel (default 128).
	DeliveryBuffer int
	// BayesIntervals is U, the estimator precision (default 100, the
	// paper's setting).
	BayesIntervals int
	// Piggyback attaches knowledge snapshots to data frames on every
	// node (Section 4.1's bandwidth optimization).
	Piggyback bool
	// AdaptiveCadence, when positive, lets every node stretch heartbeats
	// toward stable neighbors up to this interval, snapping back to
	// HeartbeatEvery on any change (see WithAdaptiveCadence).
	AdaptiveCadence time.Duration
	// LaneQueueDepth bounds each peer's data lane (see
	// WithLaneQueueDepth; default 256).
	LaneQueueDepth int
}

// Cluster is a thin convenience layer over Node: one node per process of
// the topology, pre-wired over a shared in-process Fabric — the quickest
// way to run the full adaptive stack. For per-node control (subscription
// handlers, observers, broadcast contexts) reach the underlying nodes
// with Node.
type Cluster struct {
	// mu guards the mutable membership state: the graph (epochs), the
	// node slice, and the started flag. Per-node protocol state has its
	// own synchronization.
	mu      sync.Mutex
	cfg     ClusterConfig
	graph   *Topology
	fabric  *Fabric
	nodes   []*Node
	started bool

	closeOnce sync.Once
	closeErr  error
}

// NewCluster builds (but does not start) one node per process of the
// topology.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Topology == nil {
		return nil, errors.New("adaptivecast: nil topology")
	}
	if !cfg.Topology.Connected() {
		return nil, errors.New("adaptivecast: topology must be connected")
	}
	fabric := NewFabric(FabricOptions{Seed: cfg.Seed, SendCost: cfg.SendCost})
	for l, p := range cfg.LinkLoss {
		if !cfg.Topology.HasLink(l.A, l.B) {
			_ = fabric.Close()
			return nil, fmt.Errorf("adaptivecast: loss configured for non-existent link %v", l)
		}
		if err := fabric.SetLoss(l.A, l.B, p); err != nil {
			_ = fabric.Close()
			return nil, err
		}
	}
	n := cfg.Topology.NumNodes()
	c := &Cluster{cfg: cfg, graph: cfg.Topology, fabric: fabric, nodes: make([]*Node, n)}
	for i := 0; i < n; i++ {
		id := NodeID(i)
		nd, err := NewNode(fabric.Endpoint(id), n, cfg.Topology.Neighbors(id), c.nodeOptions()...)
		if err != nil {
			_ = fabric.Close()
			return nil, fmt.Errorf("adaptivecast: node %d: %w", i, err)
		}
		c.nodes[i] = nd
	}
	return c, nil
}

// nodeOptions materializes the cluster-wide configuration as the option
// list shared by construction-time nodes and later joiners.
func (c *Cluster) nodeOptions() []Option {
	cfg := c.cfg
	opts := []Option{
		WithK(cfg.K),
		WithHeartbeat(cfg.HeartbeatEvery),
		WithDeliveryBuffer(cfg.DeliveryBuffer),
		WithBayesIntervals(cfg.BayesIntervals),
	}
	if cfg.Piggyback {
		opts = append(opts, WithPiggyback())
	}
	if cfg.AdaptiveCadence > 0 {
		opts = append(opts, WithAdaptiveCadence(cfg.AdaptiveCadence))
	}
	if cfg.LaneQueueDepth > 0 {
		opts = append(opts, WithLaneQueueDepth(cfg.LaneQueueDepth))
	}
	return opts
}

// NumNodes returns the ID-space size — every process ever admitted,
// removed members included (IDs are never reused).
func (c *Cluster) NumNodes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.nodes)
}

// Topology returns the cluster's graph — the authoritative membership
// ledger. AddNode and RemoveNode mutate it (its Epoch advances with
// every membership change) and the Graph itself is not synchronized, so
// do not read it concurrently with membership changes; callers needing a
// race-free snapshot under concurrent churn should Clone it from the
// same goroutine that drives AddNode/RemoveNode.
func (c *Cluster) Topology() *Topology { return c.graph }

// Node returns one member of the cluster, for the per-node API
// (Subscribe, BroadcastCtx, estimates); it panics on an out-of-range ID
// like a slice index would. Removed members stay addressable but
// stopped.
func (c *Cluster) Node(id NodeID) *Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[id]
}

// Fabric returns the shared in-process transport, for loss injection and
// transport-level stats.
func (c *Cluster) Fabric() *Fabric { return c.fabric }

// Start launches every node's heartbeat activity on real timers. Nodes
// added later start automatically.
func (c *Cluster) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.started = true
	for _, nd := range c.nodes {
		nd.Start()
	}
}

// Tick advances every node one heartbeat period synchronously — the
// deterministic alternative to Start for tests and paced demos.
func (c *Cluster) Tick() {
	c.mu.Lock()
	nodes := append([]*Node(nil), c.nodes...)
	c.mu.Unlock()
	for _, nd := range nodes {
		nd.Tick()
	}
}

// AddNode grows the running cluster by one process linked to the given
// neighbors: the topology gains the node and its links under a new
// membership epoch, a fresh Node joins the shared fabric declaring that
// epoch and the current tombstone set, and its join announcement floods
// the cluster — members adopt the epoch, learn the new links, and their
// next heartbeats ship the full knowledge snapshots that fold the joiner
// in. The joiner is started automatically when the cluster is running.
func (c *Cluster) AddNode(neighbors ...NodeID) (NodeID, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(neighbors) == 0 {
		return 0, errors.New("adaptivecast: a joiner needs at least one neighbor")
	}
	// Validate and deduplicate up front, and build the joiner before any
	// graph mutation: a failure here must leave the membership ledger and
	// the node slice aligned.
	uniq := make([]NodeID, 0, len(neighbors))
	for _, nb := range neighbors {
		if !c.graph.Active(nb) {
			return 0, fmt.Errorf("adaptivecast: neighbor %d is not an active member", nb)
		}
		dup := false
		for _, u := range uniq {
			if u == nb {
				dup = true
				break
			}
		}
		if !dup {
			uniq = append(uniq, nb)
		}
	}
	neighbors = uniq
	id := NodeID(c.graph.NumNodes()) // the ID AddNode will assign
	departed := make([]NodeID, 0, 4)
	for i := 0; i < c.graph.NumNodes(); i++ {
		if !c.graph.Active(NodeID(i)) {
			departed = append(departed, NodeID(i))
		}
	}
	opts := append(c.nodeOptions(), WithEpoch(c.graph.Epoch()+1), WithDeparted(departed...))
	nd, err := NewNode(c.fabric.Endpoint(id), c.graph.NumNodes()+1, neighbors, opts...)
	if err != nil {
		return 0, fmt.Errorf("adaptivecast: joiner %d: %w", id, err)
	}
	c.graph.AddNode()
	for _, nb := range neighbors {
		if _, err := c.graph.AddLink(id, nb); err != nil {
			// Unreachable: id is fresh and every neighbor was validated
			// active above. Surface rather than silently diverge.
			return 0, err
		}
	}
	c.nodes = append(c.nodes, nd)
	if c.started {
		nd.Start()
	}
	if err := nd.AnnounceJoin(); err != nil {
		return id, err
	}
	return id, nil
}

// RemoveNode removes a member from the running cluster: the node is
// stopped, the topology tombstones it under a new membership epoch, and
// a surviving neighbor announces the departure — every remaining member
// tombstones the leaver's records, so delta heartbeats stop carrying
// them and broadcast trees route around it. Removal that would
// disconnect the remaining members is rejected.
func (c *Cluster) RemoveNode(id NodeID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.graph.Active(id) {
		return fmt.Errorf("adaptivecast: node %d is not an active member", id)
	}
	if c.graph.NumActive() == 1 {
		return errors.New("adaptivecast: cannot remove the last member")
	}
	trial := c.graph.Clone()
	if err := trial.RemoveNode(id); err != nil {
		return err
	}
	if !trial.Connected() {
		return fmt.Errorf("adaptivecast: removing node %d would disconnect the cluster", id)
	}
	// Pick the announcer: a surviving neighbor of the leaver, falling
	// back to any active member.
	var announcer *Node
	for _, nb := range c.graph.Neighbors(id) {
		if c.graph.Active(nb) && nb != id {
			announcer = c.nodes[nb]
			break
		}
	}
	if announcer == nil {
		for i, nd := range c.nodes {
			if NodeID(i) != id && c.graph.Active(NodeID(i)) {
				announcer = nd
				break
			}
		}
	}
	// Build the announcement from the graph — the authoritative
	// membership ledger — not from the announcer's view: the announcer
	// may not have processed an in-flight join flood yet, and a leave
	// announced with its stale ID-space size would erase the join at
	// every member that adopts the higher epoch. The ledger epoch also
	// keeps changes announced through different members from colliding
	// on one epoch number. Announce first, mutate after: a failed
	// announcement leaves the cluster untouched and retryable.
	m := &wire.Membership{
		Node:     id,
		Epoch:    c.graph.Epoch() + 1,
		NumProcs: c.graph.NumNodes(),
	}
	for i := 0; i < c.graph.NumNodes(); i++ {
		if !c.graph.Active(NodeID(i)) || NodeID(i) == id {
			m.Departed = append(m.Departed, NodeID(i))
		}
	}
	if err := announcer.inner.AnnounceLeaveMembership(m); err != nil {
		return err
	}
	if err := c.nodes[id].Close(); err != nil {
		return err
	}
	return c.graph.RemoveNode(id)
}

// Broadcast reliably broadcasts body from the given node. It returns the
// broadcast sequence number and the planned data-message count Σ m[j].
// As with Node.Broadcast, sends are queued, so a transport refusing them
// shows in NodeStats.SendFailures, not in err; an error after initiation
// still returns the consumed seq (seq 0 means nothing was initiated).
func (c *Cluster) Broadcast(from NodeID, body []byte) (seq uint64, planned int, err error) {
	nd := c.nodeFor(from)
	if nd == nil {
		return 0, 0, fmt.Errorf("adaptivecast: node %d out of range", from)
	}
	r, err := nd.Broadcast(body)
	return r.Seq, r.Planned, err
}

// nodeFor returns the node for id, or nil when out of range.
func (c *Cluster) nodeFor(id NodeID) *Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id < 0 || int(id) >= len(c.nodes) {
		return nil
	}
	return c.nodes[id]
}

// Deliveries returns the delivery channel of one node. Do not mix with
// Subscribe on the same node.
func (c *Cluster) Deliveries(id NodeID) <-chan Delivery {
	return c.Node(id).Deliveries()
}

// Stats returns the protocol counters of one node.
func (c *Cluster) Stats(id NodeID) NodeStats { return c.Node(id).Stats() }

// Epoch returns the cluster's current membership epoch (0 until the
// first AddNode/RemoveNode).
func (c *Cluster) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.graph.Epoch()
}

// CrashEstimate returns node `at`'s current estimate of process `of`'s
// per-period crash probability and the estimate's distortion.
func (c *Cluster) CrashEstimate(at, of NodeID) (mean float64, distortion int) {
	return c.Node(at).CrashEstimate(of)
}

// LossEstimate returns node `at`'s current estimate of a link's loss
// probability; ok is false while the link is still unknown to that node.
func (c *Cluster) LossEstimate(at NodeID, l Link) (mean float64, distortion int, ok bool) {
	return c.Node(at).LossEstimate(l)
}

// KnownLinks reports the links node `at` has discovered so far.
func (c *Cluster) KnownLinks(at NodeID) []Link { return c.Node(at).KnownLinks() }

// Close stops every node and tears down the fabric, returning the errors
// joined. It is idempotent: repeated calls return the first result
// without re-stopping anything.
func (c *Cluster) Close() error {
	c.closeOnce.Do(func() {
		c.mu.Lock()
		nodes := append([]*Node(nil), c.nodes...)
		c.mu.Unlock()
		errs := make([]error, 0, len(nodes)+1)
		for _, nd := range nodes {
			if err := nd.Close(); err != nil {
				errs = append(errs, err)
			}
		}
		if err := c.fabric.Close(); err != nil {
			errs = append(errs, err)
		}
		c.closeErr = errors.Join(errs...)
	})
	return c.closeErr
}
