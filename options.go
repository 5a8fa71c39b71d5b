package adaptivecast

import (
	"time"

	"adaptivecast/internal/dedup"
	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/node"
)

// StableStorage persists the periodic clock mark the paper uses to
// estimate a process's own crash probability (Section 4.1): the process
// writes the current time every heartbeat period; after a crash it
// compares the last mark with the clock to count the missed intervals.
// The broadcast sequence floor and the last stable adaptive-cadence
// intervals ride along on the same record, so a restarted node neither
// reuses sequence numbers nor re-learns its heartbeat stretch from
// scratch.
type StableStorage = node.StableStorage

// MemStorage is an in-memory StableStorage for tests and single-process
// crash/recovery simulations. The zero value is ready to use.
type MemStorage = node.MemStorage

// NewFileStorage returns StableStorage backed by a small text file — the
// minimal stable storage the paper's crash/recovery model requires.
func NewFileStorage(path string) StableStorage { return node.NewFileStorage(path) }

// ExactlyOnceLog is the durable delivered-set that upgrades delivery to
// exactly-once across crashes (the paper's Section 2.2 local-logging
// construction): every delivery is recorded before it reaches the
// application, so a recovered node suppresses redeliveries of broadcasts
// it already acknowledged.
type ExactlyOnceLog = dedup.Log

// OpenExactlyOnceLog loads (creating if needed) a file-backed
// exactly-once log.
func OpenExactlyOnceLog(path string) (*ExactlyOnceLog, error) { return dedup.Open(path) }

// NewVolatileExactlyOnceLog returns an in-memory log (no crash survival)
// for tests and callers that only want the in-memory dedup semantics.
func NewVolatileExactlyOnceLog() *ExactlyOnceLog { return dedup.NewVolatile() }

// TreeRebuild describes one Maximum Reliability Tree planned for a
// broadcast: the broadcast's sequence number, the tree's edge count, and
// the planned data-message total Σ m[j].
type TreeRebuild struct {
	Seq     uint64
	Edges   int
	Planned int
}

// Observer receives instrumentation callbacks from a Node. Callbacks run
// synchronously on protocol goroutines — keep them fast and non-blocking;
// nil fields are skipped.
type Observer struct {
	// OnDeliver fires after a delivery was queued for the application.
	OnDeliver func(Delivery)
	// OnDrop fires when a delivery is discarded because the delivery
	// buffer was full (also counted in NodeStats.DroppedDeliveries).
	OnDrop func(Delivery)
	// OnTreeRebuild fires when a broadcast plans a fresh MRT from the
	// node's current view. Broadcasts served from the plan cache reuse
	// the prior tree and do not fire it, and warm-up floods plan no tree
	// at all.
	OnTreeRebuild func(TreeRebuild)
}

// nodeConfig collects everything the functional options can set.
type nodeConfig struct {
	inner node.Config
	obs   Observer
	// adaptiveCadence is WithAdaptiveCadence's cap, kept as a duration
	// until every option has run: the conversion to whole heartbeat
	// periods needs the final δ, and options apply in caller order.
	adaptiveCadence time.Duration
}

// Option configures a Node at construction time.
type Option func(*nodeConfig)

// WithK sets the per-broadcast reliability target (default DefaultK).
func WithK(k float64) Option {
	return func(c *nodeConfig) { c.inner.K = k }
}

// WithHeartbeat sets δ, the knowledge-exchange period (default 1s; tests
// and examples often use a few milliseconds).
func WithHeartbeat(d time.Duration) Option {
	return func(c *nodeConfig) { c.inner.HeartbeatEvery = d }
}

// WithPiggyback attaches the node's knowledge snapshot to outgoing data
// frames (Section 4.1's bandwidth optimization): application traffic then
// spreads estimates in addition to heartbeats, at the cost of one
// snapshot serialization per hop per broadcast.
func WithPiggyback() Option {
	return func(c *nodeConfig) { c.inner.Piggyback = true }
}

// WithStableStorage enables the crash-recovery clock-mark protocol: the
// node marks the given storage every heartbeat period, and a restarted
// node books the downtime since the last mark as missed ticks, degrading
// its own crash estimate accordingly. When adaptive cadence is also on,
// the per-neighbor heartbeat stretch persists alongside the mark and a
// restarted node resumes it as soon as each neighbor proves stable
// again, instead of re-walking the geometric ramp.
func WithStableStorage(s StableStorage) Option {
	return func(c *nodeConfig) { c.inner.Storage = s }
}

// WithExactlyOnceLog upgrades delivery to exactly-once across crashes:
// deliveries are durably recorded in the log before reaching the
// application, and a restarted node suppresses replays of everything it
// acknowledged before the crash. The caller owns the log and must keep it
// open for the node's lifetime.
func WithExactlyOnceLog(l *ExactlyOnceLog) Option {
	return func(c *nodeConfig) { c.inner.DedupLog = l }
}

// WithAdaptiveCadence stretches heartbeats for stable neighborhoods:
// once a neighbor's knowledge delta has been empty, anchored and
// suspicion-free for a few consecutive periods, that neighbor's
// heartbeat interval doubles geometrically (δ → 2δ → 4δ …) up to max,
// and snaps back to δ within one period of any change — a non-empty
// delta, a suspicion anywhere in the neighborhood, or a peer needing the
// full-snapshot fallback after a restart. In a converged cluster this
// cuts steady-state heartbeat *frame counts* by roughly δ/max (the
// frames themselves are already near-empty under delta heartbeats).
//
// The stretched interval rides the wire (the delta frame's Cadence
// field, wire version 2), and receivers scale their suspicion timeouts
// and sequence-gap loss accounting by the sender's declared cadence, so
// stretched neighbors are neither falsely suspected nor miscounted as
// lossy. The trade-off is failure-detection latency on stretched links:
// a crashed neighbor is suspected after timeout·cadence periods instead
// of timeout. max is rounded down to whole heartbeat periods (values
// below 2δ disable stretching).
func WithAdaptiveCadence(max time.Duration) Option {
	return func(c *nodeConfig) { c.adaptiveCadence = max }
}

// WithLaneQueueDepth bounds each peer's data lane (default 256 frames).
// Every send is an asynchronous hand-off to the node's per-peer lane
// scheduler (control > data): protocol-critical control frames
// (heartbeats, knowledge deltas, membership changes) are never shed and
// overtake queued data, and each peer's data drains in coalesced batches
// through the transport's multi-frame fast path. At the high watermark
// new data frames are shed — counted in NodeStats.LaneDrops — which is
// the backpressure policy: shedding data protects the control plane, and
// the protocol's redundancy math already tolerates lost data copies.
// The control lane is never bounded.
func WithLaneQueueDepth(depth int) Option {
	return func(c *nodeConfig) { c.inner.LaneQueueDepth = depth }
}

// WithDeliveryBuffer sizes the delivery buffer (default 128). When the
// application lags behind by more than the buffer, further deliveries are
// dropped and counted in NodeStats.DroppedDeliveries.
func WithDeliveryBuffer(size int) Option {
	return func(c *nodeConfig) { c.inner.DeliveryBuffer = size }
}

// WithObserver installs instrumentation callbacks.
func WithObserver(o Observer) Option {
	return func(c *nodeConfig) { c.obs = o }
}

// WithEpoch declares the initial membership epoch (default 0, the static
// cluster, whose frames carry no epoch). A node constructed to join a
// running cluster sets the epoch of the membership change that admits it;
// its data and delta frames then carry the epoch fence, and AnnounceJoin
// floods the change to the cluster.
func WithEpoch(epoch uint64) Option {
	return func(c *nodeConfig) { c.inner.Epoch = epoch }
}

// WithDeparted lists the processes already tombstoned as of the node's
// initial epoch (see WithEpoch), so a joiner's roster starts aligned with
// the running cluster instead of waiting for announcements.
func WithDeparted(ids ...NodeID) Option {
	return func(c *nodeConfig) { c.inner.Departed = append([]NodeID(nil), ids...) }
}

// WithBayesIntervals sets U, the Bayesian estimator precision (default
// 100, the paper's setting).
func WithBayesIntervals(u int) Option {
	return func(c *nodeConfig) { c.inner.Knowledge = knowledge.Params{Intervals: u} }
}

// WithClock injects a clock, letting tests drive the stable-storage
// crash-recovery accounting deterministically (default time.Now).
func WithClock(now func() time.Time) Option {
	return func(c *nodeConfig) { c.inner.Now = now }
}
