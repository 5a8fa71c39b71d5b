// Package node is the live runtime: a goroutine-driven implementation of
// the paper's full adaptive stack — the knowledge approximation activity
// (Algorithm 4) on a real clock and the reliable broadcast activity
// (Algorithm 1) — over a pluggable transport. The simulator and the live
// node share every algorithmic component (knowledge, mrt, optimize), so
// the two cannot drift apart; the node adds timers, serialization,
// stable-storage crash accounting and delivery plumbing.
//
// Concurrency is lock-split so the datapath scales with broadcast rate:
// the knowledge view has its own mutex (heartbeat merges and ticks),
// the dedup set has its own (inbound data), the broadcast plan cache has
// its own (outbound data), the delta-heartbeat peer bookkeeping has its
// own, and every counter is an atomic — Broadcast, handleData and Tick
// never serialize on one global lock.
//
// Steady-state bandwidth is kept flat by three mechanisms layered here:
// heartbeats ship per-neighbor knowledge deltas against the version the
// neighbor last acked (full-snapshot fallback when no ack anchors one),
// per-edge retransmission bursts leave through the lane scheduler as one
// SendN flush, and a relay reads its children straight off the parent
// vector a data frame carries instead of rebuilding the tree.
package node

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"adaptivecast/internal/cadence"
	"adaptivecast/internal/config"
	"adaptivecast/internal/dedup"
	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/lanes"
	"adaptivecast/internal/mrt"
	"adaptivecast/internal/optimize"
	"adaptivecast/internal/topology"
	"adaptivecast/internal/transport"
	"adaptivecast/internal/wire"
)

// DefaultK is the default reliability target (the paper's 0.9999).
const DefaultK = 0.9999

// Delivery is one broadcast handed to the application.
type Delivery struct {
	Origin topology.NodeID // broadcast originator
	Seq    uint64          // originator-local sequence number
	From   topology.NodeID // immediate sender (tree parent), Origin for local broadcasts
	Body   []byte
}

// Stats counts node-level events. Retrieve a snapshot with Node.Stats.
type Stats struct {
	HeartbeatsSent      int
	HeartbeatsReceived  int
	DeltaHeartbeatsSent int // heartbeats that shipped as knowledge deltas (subset of HeartbeatsSent)
	HeartbeatBytesSent  int // encoded heartbeat bytes handed to the transport
	// CountHeartbeatsSent counts heartbeats (full or delta) that rode a
	// wire v5 frame, shipping estimates as evidence counts: every one
	// whose record section is non-empty (subset of HeartbeatsSent).
	CountHeartbeatsSent int
	DataSent            int
	DataReceived        int
	Delivered           int // deliveries actually enqueued for the application
	DroppedDeliveries   int // deliveries discarded because the channel was full
	SuppressedReplays   int // redeliveries filtered by the durable dedup log
	FallbackFloods      int // broadcasts flooded for lack of a connected view
	DecodeErrors        int // frames that failed wire decoding, or carried a forged origin or tree
	SnapshotMergeErrors int // well-formed frames whose knowledge snapshot the view rejected, or that named another sender
	LogErrors           int // durable-write failures: dedup log records and seq-lease extensions
	PlanCacheHits       int // broadcasts that reused the cached (tree, allocation) plan
	PlanCacheMisses     int // broadcasts that had to replan because the view changed
	StaleEpochFrames    int // frames fenced off because they carried an older membership epoch
	EpochChanges        int // membership epoch adoptions (joins/leaves applied, catch-ups included)

	// Deprecated: always 0, no tree is rebuilt on receipt.
	ForwardCacheHits int
	// Deprecated: always 0, no tree is rebuilt on receipt.
	ForwardCacheMisses int

	// Send-path counters (the lane scheduler and the encode pool).
	LaneDrops        LaneDrops // outbound frames shed by the lane scheduler, per lane
	CoalescedFlushes int       // data flushes that carried >= 2 distinct coalesced frames
	CoalescedFrames  int       // data frames that shared a flush with at least one other
	SendFailures     int       // flushes the transport refused outright (closed transport, unknown peer)
	EncodePoolHits   int       // frame encodes served by a recycled pooled buffer
	EncodePoolMisses int       // frame encodes that had to allocate a fresh buffer
}

// LaneDrops counts outbound frames the lane scheduler shed, per lane.
// Control is structurally always 0 — the control lane is unbounded by
// design — and the field exists so tests can assert exactly that.
type LaneDrops struct {
	Control int
	Data    int
}

// counters is the runtime's internal, atomically updated form of Stats,
// so hot paths never take a lock to count an event.
type counters struct {
	heartbeatsSent      atomic.Int64
	heartbeatsReceived  atomic.Int64
	deltaHeartbeatsSent atomic.Int64
	countHeartbeatsSent atomic.Int64
	heartbeatBytesSent  atomic.Int64
	dataSent            atomic.Int64
	dataReceived        atomic.Int64
	delivered           atomic.Int64
	droppedDeliveries   atomic.Int64
	suppressedReplays   atomic.Int64
	fallbackFloods      atomic.Int64
	decodeErrors        atomic.Int64
	snapshotMergeErrors atomic.Int64
	logErrors           atomic.Int64
	planCacheHits       atomic.Int64
	planCacheMisses     atomic.Int64
	staleEpochFrames    atomic.Int64
	epochChanges        atomic.Int64
}

func (c *counters) snapshot() Stats {
	return Stats{
		HeartbeatsSent:      int(c.heartbeatsSent.Load()),
		HeartbeatsReceived:  int(c.heartbeatsReceived.Load()),
		DeltaHeartbeatsSent: int(c.deltaHeartbeatsSent.Load()),
		CountHeartbeatsSent: int(c.countHeartbeatsSent.Load()),
		HeartbeatBytesSent:  int(c.heartbeatBytesSent.Load()),
		DataSent:            int(c.dataSent.Load()),
		DataReceived:        int(c.dataReceived.Load()),
		Delivered:           int(c.delivered.Load()),
		DroppedDeliveries:   int(c.droppedDeliveries.Load()),
		SuppressedReplays:   int(c.suppressedReplays.Load()),
		FallbackFloods:      int(c.fallbackFloods.Load()),
		DecodeErrors:        int(c.decodeErrors.Load()),
		SnapshotMergeErrors: int(c.snapshotMergeErrors.Load()),
		LogErrors:           int(c.logErrors.Load()),
		PlanCacheHits:       int(c.planCacheHits.Load()),
		PlanCacheMisses:     int(c.planCacheMisses.Load()),
		StaleEpochFrames:    int(c.staleEpochFrames.Load()),
		EpochChanges:        int(c.epochChanges.Load()),
	}
}

// Hooks are optional instrumentation callbacks. They are invoked
// synchronously from protocol goroutines with no node lock held, so
// implementations may call back into the node but must stay fast; nil
// fields are skipped.
type Hooks struct {
	// OnDeliver fires after a delivery was queued for the application.
	OnDeliver func(Delivery)
	// OnDrop fires when a delivery is discarded because the delivery
	// buffer was full (the drop is also counted in Stats).
	OnDrop func(Delivery)
	// OnTreeRebuild fires when a broadcast plans a fresh Maximum
	// Reliability Tree from the current view, with the broadcast's
	// sequence number, the tree's edge count, and the planned data-message
	// total Σ m[j]. Broadcasts served from the plan cache reuse the prior
	// tree and do not fire, and warm-up floods plan no tree at all.
	OnTreeRebuild func(seq uint64, edges, planned int)
}

// Config configures a node.
type Config struct {
	// ID is this process; IDs are dense in [0, NumProcs).
	ID topology.NodeID
	// NumProcs is |Π| (the ID-space size; in a grown cluster this counts
	// tombstoned members too, since IDs are never reused).
	NumProcs int
	// Neighbors are the directly connected processes.
	Neighbors []topology.NodeID
	// Epoch is the initial membership epoch. 0 is the static-cluster
	// default, whose frames carry no epoch; a node created to join a
	// running cluster declares the bumped epoch of the membership change
	// that admits it.
	Epoch uint64
	// Departed lists the processes already tombstoned as of Epoch, so a
	// joiner's view starts aligned with the cluster's roster instead of
	// waiting for announcements.
	Departed []topology.NodeID
	// K is the reliability target (default DefaultK).
	K float64
	// HeartbeatEvery is δ, the heartbeat period (default 1s).
	HeartbeatEvery time.Duration
	// Knowledge tunes the view (Bayesian intervals, timeouts).
	Knowledge knowledge.Params
	// Storage, when set, enables the crash-recovery clock-mark protocol
	// (Events 3/4 across restarts).
	Storage StableStorage
	// Piggyback attaches this node's knowledge snapshot to outgoing data
	// frames (Section 4.1's bandwidth optimization): application traffic
	// then spreads estimates in addition to heartbeats. Costs one
	// snapshot serialization per hop per broadcast.
	Piggyback bool
	// DedupLog, when set, upgrades delivery to exactly-once across
	// crashes (the paper's Section 2.2 local-logging construction): every
	// delivery is durably recorded before it reaches the application, so
	// a recovered node suppresses redeliveries of already-acknowledged
	// broadcasts. Without it, delivery is exactly-once per incarnation
	// and at-least-once across crashes.
	DedupLog *dedup.Log
	// DeliveryBuffer sizes the delivery channel (default 128). When the
	// application lags, further deliveries are dropped and counted.
	DeliveryBuffer int
	// AdaptiveCadenceMax caps the adaptive heartbeat cadence, in
	// heartbeat periods: once a neighbor's delta has been empty, anchored
	// and suspicion-free for a few consecutive periods, the node
	// geometrically stretches that neighbor's heartbeat interval
	// (1δ → 2δ → 4δ …) up to this cap, and snaps back to δ the moment
	// anything changes — a non-empty delta, any suspicion, or a neighbor
	// needing the full-snapshot fallback. The stretched interval rides
	// the delta frame's Cadence field so the receiver scales its
	// suspicion timeout and sequence-gap loss accounting instead of
	// falsely suspecting (or under-counting) a quiet-by-design neighbor.
	// Values <= 1 disable stretching (the default).
	AdaptiveCadenceMax int
	// LaneQueueDepth bounds each peer's data lane in the lane scheduler
	// (default 256). At the high watermark new data frames are shed and
	// counted in Stats.LaneDrops; the control lane is never bounded.
	LaneQueueDepth int
	// Hooks are optional instrumentation callbacks.
	Hooks Hooks
	// Now injects a clock for tests (default time.Now).
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.K == 0 {
		c.K = DefaultK
	}
	if c.HeartbeatEvery == 0 {
		c.HeartbeatEvery = time.Second
	}
	if c.DeliveryBuffer == 0 {
		c.DeliveryBuffer = 128
	}
	if c.AdaptiveCadenceMax > wire.MaxCadence {
		c.AdaptiveCadenceMax = wire.MaxCadence
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// plan is one immutable broadcast plan derived from a view: the MRT, its
// wire form, the greedy allocation keyed by child node, and the planned
// message total — or the error that kept the view from planning (cached
// too, so repeated warm-up broadcasts don't re-derive the failure).
// Plans are shared across broadcasts; no field is ever mutated.
type plan struct {
	edges   int // tree links, for the OnTreeRebuild hook
	parents []topology.NodeID
	alloc   []int32
	planned int
	err     error
}

// seqLeaseBatch is how far ahead of the issued broadcast sequence the
// persisted floor runs. One durable write buys this many broadcasts, and
// a crash wastes at most this much of the (unbounded) sequence space.
const seqLeaseBatch = 1 << 10

// announceRounds is how many consecutive heartbeat periods a node
// re-floods its latest membership announcement. Announcements cross the
// same lossy links as every other frame; with per-link loss L the chance
// a neighbor misses all rounds is L^(1+announceRounds) (the original
// flood plus the repeats), and delta-heartbeat clusters additionally
// repair stragglers through the stale-epoch re-announcement loop.
const announceRounds = 3

// memberChange is the last membership announcement this node applied (or
// originated), kept for re-announcement: a peer whose frames arrive with
// a stale epoch missed the flood, and re-sending the complete Membership
// catches it up in one frame. frame is the announcement pre-encoded, so
// the repair paths (per stale frame received, per redundancy round) pay
// one Send each, never a re-serialization.
type memberChange struct {
	kind   wire.FrameKind // FrameJoin or FrameLeave
	member wire.Membership
	frame  []byte
}

// newMemberChange builds the record, deep-copying the slices (the caller
// may hold them) and pre-encoding the frame. Encoding a validated
// Membership cannot fail; a nil frame just disables re-announcement.
func newMemberChange(kind wire.FrameKind, m *wire.Membership) *memberChange {
	mc := &memberChange{kind: kind, member: *m}
	mc.member.Departed = append([]topology.NodeID(nil), m.Departed...)
	mc.member.Neighbors = append([]topology.NodeID(nil), m.Neighbors...)
	mc.frame, _ = wire.Encode(&wire.Frame{Kind: kind, Member: &mc.member})
	return mc
}

// Node is one live process.
type Node struct {
	cfg Config

	// epoch is the membership epoch this node operates in; frames from
	// older epochs are fenced off, newer epochs are adopted from
	// membership announcements. nbs is the current neighbor roster
	// (copy-on-write: mutations install a fresh slice; readers use the
	// snapshot they loaded). lastChange backs re-announcements; nil until
	// the first membership change. memberMu serializes whole membership
	// applications — epoch, view, roster, peer state and lastChange move
	// together, and concurrent applies (transport goroutine vs a local
	// AnnounceLeave) must not interleave their updates; readers stay
	// lock-free on the atomics. Lock order: memberMu may take viewMu,
	// peerMu and cadMu; never the reverse. reannMu guards reannounced,
	// the per-peer once-per-period limit on stale-epoch re-announcements.
	memberMu    sync.Mutex
	epoch       atomic.Uint64
	nbs         atomic.Pointer[[]topology.NodeID]
	lastChange  atomic.Pointer[memberChange]
	reannMu     sync.Mutex
	reannounced map[topology.NodeID]bool
	// announceLeft counts the remaining periods Tick re-floods lastChange
	// to the neighborhood: announcements ride lossy links like any frame,
	// and a few redundant rounds bound the chance a member misses a
	// membership change even where the stale-epoch repair loop cannot see
	// it.
	announceLeft atomic.Int32

	// ownsFrames is set when the transport hands the handler exclusive
	// frame buffers (transport.FrameOwner): a delivered body and a relayed
	// frame may then alias the inbound buffer instead of copying it.
	// decPool holds the decode storage handle borrows per inbound frame.
	ownsFrames bool
	decPool    decodePool

	// lanes is the prioritized send scheduler every frame leaves through
	// (see sendpath.go). encPool recycles outbound frame encode buffers
	// across sends (sound because of the transport Send ownership rule:
	// buffers are only borrowed for the duration of a send).
	lanes   *lanes.Scheduler
	encPool encodePool

	// viewMu guards the knowledge view (heartbeat merges, ticks,
	// estimate reads). It is never held while sending.
	viewMu sync.Mutex
	view   *knowledge.View

	// seq is the broadcast sequencer (atomic: Broadcast never locks it).
	seq atomic.Uint64

	// delivered dedups inbound broadcasts under its own lock, one
	// watermark per process. procs is the view's ID-space size, stored
	// after every Grow: the receive path range-checks a data frame's
	// origin against it without viewMu.
	delivered *deliveredSet
	procs     atomic.Int64

	// planMu guards the cached broadcast plan. Lock order: planMu may
	// take viewMu; never the reverse.
	planMu      sync.Mutex
	cachedPlan  *plan
	planVersion uint64

	// peerMu guards the delta-heartbeat version bookkeeping (a leaf lock:
	// nothing is called while holding it). peerSeen[j] is the latest
	// version of j's view merged here — echoed back to j as Ack on the
	// next heartbeat. peerAcked[j] is the latest version of *this* view j
	// has acknowledged — the base the next delta to j is cut from; 0 (or a
	// value ahead of the current view, after a restart) forces the
	// full-snapshot fallback. Both are keyed only by senders whose frame
	// named them (see sentBy), so checkSnapshot's bound on Snap.From
	// bounds them too.
	peerMu    sync.Mutex
	peerSeen  map[topology.NodeID]uint64
	peerAcked map[topology.NodeID]uint64

	// cadMu guards the adaptive-cadence controller state (a leaf lock
	// taken once per Tick; nothing is called while holding it). cad[j]
	// tracks the stretch toward neighbor j; nil when adaptive cadence is
	// off. cadResume holds the per-neighbor intervals loaded from stable
	// storage; each entry is handed to cadence.Resume the first time its
	// neighbor is stepped, then dropped.
	cadMu     sync.Mutex
	cad       map[topology.NodeID]*cadence.State
	cadResume map[topology.NodeID]int

	// seqLease is the broadcast sequence floor currently persisted in
	// stable storage: always >= any issued seq, so a crash can never lead
	// to sequence reuse (which peers' dedup watermarks would silently
	// censor). Broadcasts that catch up with the lease extend it
	// synchronously under leaseMu before the new seq escapes the node.
	// cadPersist (also under leaseMu) is the cadence snapshot written
	// alongside the mark: Tick refreshes it from the controllers, and
	// lease extensions re-write it unchanged — ensureSeqLease must not
	// take cadMu itself, since both are rank-40 leaves that never nest.
	seqLease   atomic.Uint64
	leaseMu    sync.Mutex
	cadPersist map[topology.NodeID]int

	stats counters

	closed  atomic.Bool
	started atomic.Bool

	//adaptivelint:chan owner=Node.pushDelivery close=never
	deliveries chan Delivery
	//adaptivelint:chan owner=none close=Node.Stop
	stop chan struct{}
	//adaptivelint:chan owner=none close=Node.heartbeatLoop
	done      chan struct{}
	startOnce sync.Once
	stopOnce  sync.Once
}

// New builds a node over the given transport. If stable storage holds a
// previous clock mark, the downtime since that mark is booked as missed
// ticks (Event 4) before the node starts.
func New(cfg Config, tr transport.Transport) (*Node, error) {
	cfg = cfg.withDefaults()
	switch {
	case cfg.HeartbeatEvery < 0:
		return nil, fmt.Errorf("node: negative HeartbeatEvery %v", cfg.HeartbeatEvery)
	case cfg.DeliveryBuffer < 0:
		return nil, fmt.Errorf("node: negative DeliveryBuffer %d", cfg.DeliveryBuffer)
	case cfg.LaneQueueDepth < 0:
		return nil, fmt.Errorf("node: negative LaneQueueDepth %d", cfg.LaneQueueDepth)
	}
	if tr == nil {
		return nil, errors.New("node: nil transport")
	}
	if tr.Local() != cfg.ID {
		return nil, fmt.Errorf("node: transport speaks for %d, config says %d", tr.Local(), cfg.ID)
	}
	if cfg.K <= 0 || cfg.K >= 1 {
		return nil, fmt.Errorf("node: K=%v outside (0,1)", cfg.K)
	}
	view, err := knowledge.NewView(cfg.ID, cfg.NumProcs, cfg.Neighbors, nil, cfg.Knowledge)
	if err != nil {
		return nil, err
	}
	for _, d := range cfg.Departed {
		if d == cfg.ID {
			return nil, fmt.Errorf("node: self %d listed as departed", d)
		}
		view.MarkDeparted(d)
	}
	n := &Node{
		cfg:        cfg,
		view:       view,
		delivered:  newDeliveredSet(),
		peerSeen:   make(map[topology.NodeID]uint64, len(cfg.Neighbors)),
		peerAcked:  make(map[topology.NodeID]uint64, len(cfg.Neighbors)),
		deliveries: make(chan Delivery, cfg.DeliveryBuffer),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	n.epoch.Store(cfg.Epoch)
	n.procs.Store(int64(cfg.NumProcs))
	n.delivered.grow(cfg.NumProcs)
	roster := append([]topology.NodeID(nil), cfg.Neighbors...)
	n.nbs.Store(&roster)
	n.reannounced = make(map[topology.NodeID]bool)
	if fo, ok := tr.(transport.FrameOwner); ok && fo.HandlerOwnsFrame() {
		n.ownsFrames = true
	}
	if cfg.Epoch > 0 {
		// A node constructed mid-epoch (a joiner) can catch laggard peers
		// up on its own membership change, and re-floods it for a few
		// periods in case the AnnounceJoin flood is lost.
		n.lastChange.Store(newMemberChange(wire.FrameJoin, &wire.Membership{
			Node:      cfg.ID,
			Epoch:     cfg.Epoch,
			NumProcs:  cfg.NumProcs,
			Departed:  cfg.Departed,
			Neighbors: roster,
		}))
		n.announceLeft.Store(announceRounds)
	}
	if cfg.AdaptiveCadenceMax > 1 {
		n.cad = make(map[topology.NodeID]*cadence.State, len(cfg.Neighbors))
	}
	// Resume broadcast sequencing above anything this node may have
	// issued before a crash — the persisted sequence floor and/or the
	// dedup log's high-water mark — so post-recovery broadcasts get fresh
	// IDs instead of being silently censored by every live peer's dedup
	// watermark.
	var resume uint64
	if cfg.Storage != nil {
		mark, seqFloor, cadences, ok, err := cfg.Storage.LoadMark()
		if err != nil {
			return nil, err
		}
		if ok {
			missed := int(cfg.Now().Sub(mark) / cfg.HeartbeatEvery)
			if missed > 0 {
				view.OnRecover(missed)
			}
			resume = seqFloor
			n.seqLease.Store(seqFloor)
			if n.cad != nil && len(cadences) > 0 {
				// Resume the pre-crash heartbeat stretch: each neighbor
				// still has to prove itself stable again, but then jumps
				// straight back to its persisted interval instead of
				// re-walking the geometric ramp. cadPersist starts as the
				// same map so a lease extension before the first Tick
				// cannot clobber the stored stretch with an empty one.
				n.cadResume = cadences
				n.cadPersist = cloneCadences(cadences)
			}
		}
	}
	if cfg.DedupLog != nil {
		if m := cfg.DedupLog.MaxSeq(cfg.ID); m > resume {
			resume = m
		}
	}
	n.seq.Store(resume)
	n.lanes = lanes.New(tr, lanes.Config{QueueDepth: cfg.LaneQueueDepth})
	tr.SetHandler(n.handle)
	return n, nil
}

// Start launches the heartbeat activity. It is idempotent.
func (n *Node) Start() {
	n.startOnce.Do(func() {
		n.started.Store(true)
		//adaptivelint:goroutine stop=n.stop
		go n.heartbeatLoop()
	})
}

// Stop halts the heartbeat activity (if started) and waits for it to
// exit. The transport is not closed (the caller owns it). Stop is
// idempotent and safe on nodes that were never started — deterministic
// drivers pace nodes with Tick instead of Start.
func (n *Node) Stop() {
	n.stopOnce.Do(func() {
		close(n.stop)
		if n.started.Load() {
			<-n.done
		}
		n.closed.Store(true)
		// Drain, don't drop: queued control and data frames still flush
		// onto the transport (which the caller owns and must close only
		// after Stop returns) before Stop completes.
		_ = n.lanes.Close()
	})
}

// ID returns the node's process identity.
func (n *Node) ID() topology.NodeID { return n.cfg.ID }

// Epoch returns the membership epoch the node currently operates in.
func (n *Node) Epoch() uint64 { return n.epoch.Load() }

// Neighbors returns the current neighbor roster (a shared snapshot;
// callers must not modify it). The roster changes when membership
// announcements add or remove adjacent processes.
func (n *Node) Neighbors() []topology.NodeID { return *n.nbs.Load() }

// Deliveries returns the channel of application deliveries.
func (n *Node) Deliveries() <-chan Delivery { return n.deliveries }

// Stats returns a snapshot of the node counters, folding in the send
// path's scheduler and encode-pool counters.
func (n *Node) Stats() Stats {
	s := n.stats.snapshot()
	s.EncodePoolHits = int(n.encPool.hits.Load())
	s.EncodePoolMisses = int(n.encPool.misses.Load())
	ls := n.lanes.Stats()
	s.LaneDrops = LaneDrops(ls.Drops)
	s.CoalescedFlushes = ls.CoalescedFlushes
	s.CoalescedFrames = ls.CoalescedFrames
	s.SendFailures = ls.SendFailures
	return s
}

// WaitSendIdle blocks until the lane scheduler has flushed every queued
// outbound frame, or the timeout elapses; it reports whether idle was
// reached. Benchmarks and tests use it so throughput numbers measure
// frames handed to the transport, not enqueue rate, and so a send
// failure has been counted in Stats.SendFailures.
func (n *Node) WaitSendIdle(timeout time.Duration) bool { return n.lanes.WaitIdle(timeout) }

// CrashEstimate reads the node's current estimate of process i.
func (n *Node) CrashEstimate(i topology.NodeID) (mean float64, dist int) {
	n.viewMu.Lock()
	defer n.viewMu.Unlock()
	return n.view.CrashEstimate(i)
}

// LossEstimate reads the node's current estimate of link l.
func (n *Node) LossEstimate(l topology.Link) (mean float64, dist int, ok bool) {
	n.viewMu.Lock()
	defer n.viewMu.Unlock()
	return n.view.LossEstimate(l)
}

// KnownLinks reports the links the node has discovered.
func (n *Node) KnownLinks() []topology.Link {
	n.viewMu.Lock()
	defer n.viewMu.Unlock()
	return n.view.KnownLinks()
}

// heartbeatLoop is the periodic activity of Algorithm 4 on a real clock.
func (n *Node) heartbeatLoop() {
	defer close(n.done)
	ticker := time.NewTicker(n.cfg.HeartbeatEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			n.Tick()
		case <-n.stop:
			return
		}
	}
}

// Tick executes one heartbeat period synchronously: Events 2 and 3, a
// stable-storage clock mark, and a heartbeat to every neighbor. It is
// exported so tests and deterministic drivers can pace the node without
// real time.
//
// Each neighbor gets its own frame: the records changed since the
// version that neighbor last acked, or a full snapshot while the acked
// version is unknown or unanchorable. Once estimates converge the deltas
// go empty and a heartbeat shrinks to its liveness header, which is what
// keeps steady-state bandwidth flat as the system grows.
func (n *Node) Tick() {
	if n.closed.Load() {
		return
	}
	// Snapshot the roster once per period: membership changes landing
	// mid-tick take effect next period. Copy the peer bookkeeping into the
	// per-neighbor outbound list first (leaf lock, never nested under
	// viewMu) so delta cutting under the view lock reads no shared maps.
	neighbors := n.Neighbors()
	epoch := n.epoch.Load()
	// Re-arm the per-peer stale-epoch re-announcement budget (see
	// epochGate): one repair frame per laggard per period.
	n.reannMu.Lock()
	for k := range n.reannounced {
		delete(n.reannounced, k)
	}
	n.reannMu.Unlock()
	// Redundant membership announcement rounds (see announceRounds): a
	// recent join/leave is re-flooded with the heartbeats so a lossy link
	// cannot silently strand a member in the old epoch.
	if n.announceLeft.Load() > 0 && n.announceLeft.Add(-1) >= 0 {
		if lc := n.lastChange.Load(); lc != nil && lc.frame != nil {
			for _, nb := range neighbors {
				if nb != lc.member.Node {
					_ = n.sendControl(nb, lc.frame, nil)
				}
			}
		}
	}
	type outbound struct {
		to        topology.NodeID
		base, ack uint64 // the version of this view the neighbor acked; of its view merged here
		snap      *knowledge.Snapshot
		since     uint64 // base when snap is a delta cut from it, 0 when it is the full snapshot
		suspected bool
	}
	outs := make([]outbound, len(neighbors))
	n.peerMu.Lock()
	for i, nb := range neighbors {
		outs[i] = outbound{to: nb, base: n.peerAcked[nb], ack: n.peerSeen[nb]}
	}
	n.peerMu.Unlock()
	var full *knowledge.Snapshot

	n.viewMu.Lock()
	n.view.BeginPeriod()
	ver := n.view.Version()
	for i := range outs {
		o := &outs[i]
		// Suspicion state must be read after BeginPeriod (which is where
		// Event 2 raises suspicions), so a suspicion snaps cadence back to
		// δ within the same period it fires. Suspicion is scoped to the
		// suspect's own link: one dead neighbor must not pin the whole
		// node at full cadence toward its healthy neighbors — they learn
		// of the suspicion through the ordinary snap-back (the raised
		// suspicion dirties the suspect's record, so the deltas toward
		// everyone go non-empty at δ until the news is acked) and then
		// re-stretch while the suspect's link alone stays at δ.
		o.suspected = n.view.Suspected(o.to)
		// One cut per distinct acked base: in the common case every
		// neighbor acked the same version, so a node of any degree scans
		// the view once per period, not once per neighbor. An earlier
		// neighbor's fallback is reused the same way.
		j := 0
		for j < i && outs[j].base != o.base {
			j++
		}
		if j < i {
			o.snap, o.since = outs[j].snap, outs[j].since
		} else if d, ok := n.view.DeltaSince(o.base); ok {
			o.snap, o.since = d, o.base
		} else {
			if full == nil {
				full = n.view.Snapshot()
			}
			o.snap = full // since stays 0: full-snapshot fallback
		}
	}
	n.viewMu.Unlock()

	if n.cfg.Storage != nil {
		// A failed mark is not fatal: it only degrades the crash
		// self-estimate after the next restart. The persisted sequence
		// floor is the current lease, never the raw issued seq — the lease
		// invariant (floor >= every issued seq) must survive the write, so
		// the load+write pair is serialized under leaseMu against
		// concurrent extensions from Broadcast: an unordered write here
		// could clobber a freshly extended (and already relied-upon) lease
		// with a stale floor. The cadence snapshot rides along: gathered
		// under cadMu first (cadMu and leaseMu are rank-40 leaves and must
		// never nest), it is one period stale at worst.
		cadSnap := n.cadenceSnapshot()
		n.leaseMu.Lock()
		n.cadPersist = cadSnap
		_ = n.cfg.Storage.SaveMark(n.cfg.Now(), n.seqLease.Load(), cadSnap)
		n.leaseMu.Unlock()
	}

	// Shared delta cuts: the snapshot section of a delta frame is encoded
	// once per distinct snapshot — in the common case every neighbor acked
	// the same version, so once per period — then spliced after each
	// neighbor's individual header: Since/Ack/Cadence differ per peer, the
	// record section doesn't. It is always cut in the count layout: a
	// non-empty section rides v5 (see heartbeatCaps), and an empty one is
	// the same bytes in every layout. Section buffers are copied into the
	// frames by AppendDeltaFrame, so they recycle as soon as the loop
	// ends; frame buffers recycle when their send releases them.
	type section struct {
		snap  *knowledge.Snapshot
		bytes []byte
	}
	secs := make([]section, 0, 4)
	secBufs := make([]*encBuf, 0, 4)
	sectionFor := func(s *knowledge.Snapshot) ([]byte, error) {
		for _, sec := range secs {
			if sec.snap == s {
				return sec.bytes, nil
			}
		}
		eb := n.encPool.get()
		sec, err := wire.AppendSnapshotSectionCounts(eb.b, s)
		if err != nil {
			n.encPool.put(eb)
			return nil, err
		}
		eb.b = sec
		secBufs = append(secBufs, eb)
		secs = append(secs, section{s, sec})
		return sec, nil
	}

	sent, deltas, counts := 0, 0, 0
	for _, o := range outs {
		declared := 1
		if n.cad != nil {
			// The controller sees the neighborhood state every period —
			// including skipped ones — so a snap-back trigger (non-empty or
			// unanchored delta, suspicion of this neighbor) re-enables the
			// δ cadence and sends within the same period it appears.
			stable := o.since > 0 && !o.suspected &&
				len(o.snap.Procs) == 0 && len(o.snap.Links) == 0
			var due bool
			declared, due = n.cadenceStep(o.to, stable)
			if !due {
				continue
			}
		}
		sec, err := sectionFor(o.snap)
		if err != nil {
			continue
		}
		caps := heartbeatCaps(o.snap)
		eb := n.encPool.get()
		frame, err := wire.AppendDeltaFrame(eb.b, &wire.KnowledgeDelta{
			Since:   o.since,
			Ver:     ver,
			Ack:     o.ack,
			Cadence: uint64(declared),
			Epoch:   epoch,
			Caps:    caps,
		}, sec)
		if err != nil {
			n.encPool.put(eb)
			continue
		}
		eb.b = frame
		if err := n.sendControl(o.to, frame, n.encPool.releaser(eb)); err == nil {
			sent++
			n.stats.heartbeatBytesSent.Add(int64(len(frame)))
			if o.since > 0 {
				deltas++
			}
			if caps != 0 {
				counts++
			}
		}
	}
	for _, eb := range secBufs {
		n.encPool.put(eb)
	}
	n.stats.heartbeatsSent.Add(int64(sent))
	n.stats.deltaHeartbeatsSent.Add(int64(deltas))
	n.stats.countHeartbeatsSent.Add(int64(counts))
}

// heartbeatCaps decides the wire layout of a heartbeat: CapsCounts — a
// version-5 frame shipping evidence counts — for a non-empty record
// section, where the bytes are; 0 for an empty one, which encodes the
// same bytes in any layout and so takes the oldest header that fits
// (v1–v3) rather than pay for the Caps varint.
func heartbeatCaps(s *knowledge.Snapshot) uint64 {
	if len(s.Procs) > 0 || len(s.Links) > 0 {
		return wire.CapsCounts
	}
	return 0
}

// cadenceStep advances the adaptive-cadence controller for one neighbor
// by one heartbeat period and decides whether a frame is due now (see
// internal/cadence for the stretch/snap-back policy). Stability here
// means the delta to this neighbor is anchored and empty, and no
// neighbor is suspected.
func (n *Node) cadenceStep(to topology.NodeID, stable bool) (declared int, due bool) {
	n.cadMu.Lock()
	defer n.cadMu.Unlock()
	st := n.cad[to]
	if st == nil {
		if hint := n.cadResume[to]; hint > 1 {
			st = cadence.Resume(hint)
			delete(n.cadResume, to)
		} else {
			st = cadence.New()
		}
		n.cad[to] = st
	}
	return st.Step(stable, n.cfg.AdaptiveCadenceMax)
}

// cadenceSnapshot collects the per-neighbor intervals worth persisting:
// the current stretch of every controller, or its unconsumed resume
// hint when that is larger — a node that crashes again before a
// neighbor turns stable must not lose the stretch the previous
// incarnation had already earned. Intervals at the default 1 are
// omitted; nil when adaptive cadence is off.
func (n *Node) cadenceSnapshot() map[topology.NodeID]int {
	if n.cad == nil {
		return nil
	}
	n.cadMu.Lock()
	defer n.cadMu.Unlock()
	var snap map[topology.NodeID]int
	record := func(id topology.NodeID, iv int) {
		if iv > 1 && iv > snap[id] {
			if snap == nil {
				snap = make(map[topology.NodeID]int, len(n.cad))
			}
			snap[id] = iv
		}
	}
	for id, st := range n.cad {
		record(id, st.Interval())
		record(id, st.Hint())
	}
	for id, hint := range n.cadResume {
		record(id, hint)
	}
	return snap
}

// Broadcast initiates a reliable broadcast (Algorithm 1). It returns the
// broadcast's sequence number and the planned number of data messages
// (Σ m[j]); when the current view cannot produce a spanning MRT yet, the
// message is flooded to the neighbors instead and planned is the flood
// fan-out.
//
// Sends are hand-offs to the lane scheduler, so a transport that refuses
// them (closed, unknown peer) does not fail the call: the broadcast
// returns its seq and the refusal is counted in Stats.SendFailures once
// the lanes flush (see WaitSendIdle). An error comes back only when the
// send path itself is gone, or the frame failed to encode; the broadcast
// is then already partially in effect — the local delivery was queued
// and the sequence number consumed — so the real seq (and planned count)
// is returned alongside the error, letting callers dedup a half-sent
// broadcast instead of retrying it blind.
func (n *Node) Broadcast(body []byte) (seq uint64, planned int, err error) {
	if n.closed.Load() {
		return 0, 0, errors.New("node: stopped")
	}
	seq = n.seq.Add(1)
	if n.cfg.Storage != nil {
		n.ensureSeqLease(seq)
	}
	n.delivered.mark(n.cfg.ID, seq)
	if n.cfg.DedupLog != nil {
		if _, err := n.cfg.DedupLog.Record(dedup.ID{Origin: n.cfg.ID, Seq: seq}); err != nil {
			n.stats.logErrors.Add(1)
		}
	}

	msg := &wire.DataMsg{Origin: n.cfg.ID, Seq: seq, Root: n.cfg.ID, Body: body, Epoch: n.epoch.Load()}
	p, fresh := n.currentPlan()
	if p.err == nil {
		msg.Parents = p.parents
		msg.AllocByNode = p.alloc
		planned = p.planned
		if fresh && n.cfg.Hooks.OnTreeRebuild != nil {
			n.cfg.Hooks.OnTreeRebuild(seq, p.edges, planned)
		}
	} else {
		n.stats.fallbackFloods.Add(1)
		planned = len(n.Neighbors())
	}
	n.pushDelivery(Delivery{Origin: n.cfg.ID, Seq: seq, From: n.cfg.ID, Body: body})

	// Encode once: forward and flood both consume the same frame bytes
	// (and the same pooled buffer, released after the last send).
	frame, release, encErr := n.encodeDataFrame(msg)
	if encErr != nil {
		return seq, planned, encErr
	}
	if p.err == nil {
		err = n.forward(msg, frame, release)
	} else {
		err = n.flood(topology.None, frame, release) // originator flood: every neighbor
	}
	return seq, planned, err
}

// ensureSeqLease extends the persisted broadcast sequence floor so it
// stays ahead of the issued sequence: the floor must be durable *before*
// a leased seq can escape the node, or a crash could re-issue it and
// peers' dedup watermarks would censor the recovered node. One durable
// write covers seqLeaseBatch broadcasts; a failed write is counted
// (LogErrors) and delivery degrades to the pre-lease behavior for this
// batch rather than failing the broadcast.
func (n *Node) ensureSeqLease(seq uint64) {
	if seq <= n.seqLease.Load() {
		return
	}
	n.leaseMu.Lock()
	defer n.leaseMu.Unlock()
	if seq <= n.seqLease.Load() {
		return // another broadcast extended the lease meanwhile
	}
	lease := seq + seqLeaseBatch
	if err := n.cfg.Storage.SaveMark(n.cfg.Now(), lease, n.cadPersist); err != nil {
		n.stats.logErrors.Add(1)
		return
	}
	n.seqLease.Store(lease)
}

// currentPlan returns the broadcast plan for the node's current view,
// reusing the cached plan while the view's version is unchanged. fresh
// reports whether this call built the plan (the OnTreeRebuild hook fires
// only then).
func (n *Node) currentPlan() (p *plan, fresh bool) {
	n.planMu.Lock()
	defer n.planMu.Unlock()
	n.viewMu.Lock()
	ver := n.view.Version()
	n.viewMu.Unlock()
	if n.cachedPlan != nil && n.planVersion == ver {
		n.stats.planCacheHits.Add(1)
		return n.cachedPlan, false
	}
	n.stats.planCacheMisses.Add(1)
	n.cachedPlan, n.planVersion = n.replan()
	return n.cachedPlan, true
}

// replan derives a plan from the view as it stands, and reports the view
// version it stands at. (G, C) is materialized under the view lock into a
// pooled workspace; the tree and allocation are built on that private
// copy with the view lock released, so a replan never blocks heartbeat
// merges. The plan owns its vectors: nothing in it aliases the workspace,
// which goes back to the pool before the plan is used.
func (n *Node) replan() (p *plan, ver uint64) {
	ws := planWorkspaces.get()
	defer planWorkspaces.put(ws)
	n.viewMu.Lock()
	ver = n.view.Version()
	err := n.view.EstimatedConfigInto(&ws.graph, &ws.config)
	n.viewMu.Unlock()
	if err != nil {
		return &plan{err: err}, ver
	}
	return ws.plan(n.cfg.ID, n.cfg.K), ver
}

// planWorkspace is the scaffolding of one replan: the estimated (G, C)
// and the MRT builder, ≈ 40 KB in ≈ 700 objects at n = 128 and garbage the
// moment the plan's vectors are copied out.
type planWorkspace struct {
	graph   topology.Graph
	config  config.Config
	builder mrt.Builder
}

// planPool recycles replan workspaces: one pool for the process, not a
// field of the node, because a node that kept its own would hold it
// between replans (fabric128-hb: heap 20.5 → 25.4 MB) and, where origins
// rotate, still find it cold.
type planPool struct {
	pool sync.Pool
}

var planWorkspaces planPool

func (p *planPool) get() *planWorkspace {
	if v := p.pool.Get(); v != nil {
		return v.(*planWorkspace)
	}
	return new(planWorkspace)
}

func (p *planPool) put(ws *planWorkspace) { p.pool.Put(ws) }

// plan derives (MRT, allocation) from the estimated configuration the
// workspace holds.
func (ws *planWorkspace) plan(root topology.NodeID, k float64) *plan {
	tree, err := ws.builder.Build(&ws.graph, &ws.config, root)
	if err != nil {
		return &plan{err: err}
	}
	lams, err := tree.Lambdas(&ws.config)
	if err != nil {
		return &plan{err: err}
	}
	alloc, err := optimize.Greedy(lams, k, optimize.Options{})
	if err != nil {
		return &plan{err: err}
	}
	byNode, err := allocByNode(tree, alloc)
	if err != nil {
		return &plan{err: err}
	}
	return &plan{
		edges:   tree.NumEdges(),
		parents: tree.Parents(),
		alloc:   byNode,
		planned: optimize.Total(alloc),
	}
}

// allocByNode re-keys an edge-indexed allocation by child node for the
// wire format, rejecting allocations peers would refuse to decode
// (wire.MaxAllocation) and tree edges that point outside the node range
// instead of silently truncating either.
func allocByNode(tree *mrt.Tree, alloc []int) ([]int32, error) {
	if len(alloc) != tree.NumEdges() {
		return nil, fmt.Errorf("node: allocation covers %d edges, tree has %d", len(alloc), tree.NumEdges())
	}
	out := make([]int32, tree.NumNodes())
	for i := 0; i < tree.NumEdges(); i++ {
		child := tree.EdgeChild(i)
		if child < 0 || int(child) >= len(out) {
			return nil, fmt.Errorf("node: tree edge %d leads to out-of-range node %d", i, child)
		}
		if alloc[i] < 0 || alloc[i] > wire.MaxAllocation {
			return nil, fmt.Errorf("node: allocation %d for edge %d outside the wire format's [0,%d]", alloc[i], i, wire.MaxAllocation)
		}
		out[child] = int32(alloc[i])
	}
	return out, nil
}

// forward pushes the allocated copies of a pre-encoded data frame to
// this node's children in the tree the message carries (Algorithm 1
// lines 8–12): every v with msg.Parents[v] == self, in ascending ID, gets
// msg.AllocByNode[v] copies. The origin and a relay take the same path —
// the origin's plan is already in msg, a relay has checked the vector
// (mrt.CheckParents). Each child's m[j] identical copies are batched
// through the data lane as one SendN flush (one fabric enqueue / one TCP
// flush per child instead of one per copy). The frame is shared across
// children; release (optional) is fanned out so the buffer recycles
// after the last child's send is done with it. When the lanes refuse
// every hand-off — the scheduler is closed — the broadcast went nowhere
// and the caller is told.
func (n *Node) forward(msg *wire.DataMsg, frame []byte, release func()) error {
	attempted, sent := 0, 0
	var lastErr error
	shared := newSharedRelease(release)
	self, ps := n.cfg.ID, msg.Parents
	for child := mrt.NextChild(ps, self, topology.None); child != topology.None; child = mrt.NextChild(ps, self, child) {
		// wire's validate, on encode and decode alike, holds AllocByNode
		// to Parents' length and each entry to [0, wire.MaxAllocation].
		copies := int(msg.AllocByNode[child])
		if copies == 0 {
			continue
		}
		attempted += copies
		got, err := n.sendDataN(child, frame, copies, shared.acquire())
		sent += got
		if err != nil {
			lastErr = err
		}
	}
	shared.done()
	n.stats.dataSent.Add(int64(sent))
	if attempted > 0 && sent == 0 {
		return fmt.Errorf("node: all %d forwards failed: %w", attempted, lastErr)
	}
	return nil
}

// flood sends one copy of a pre-encoded data frame to every neighbor
// except `except` (topology.None floods everyone). Originator floods
// cover all neighbors; relay floods exclude the inbound sender —
// echoing the frame back to whoever just sent it wastes a frame per hop
// and, with piggybacking, re-merges our own snapshot. Frame sharing,
// release fan-out and error semantics match forward.
func (n *Node) flood(except topology.NodeID, frame []byte, release func()) error {
	attempted, sent := 0, 0
	var lastErr error
	shared := newSharedRelease(release)
	for _, nb := range n.Neighbors() {
		if nb == except {
			continue
		}
		attempted++
		got, err := n.sendDataN(nb, frame, 1, shared.acquire())
		sent += got
		if err != nil {
			lastErr = err
		}
	}
	shared.done()
	n.stats.dataSent.Add(int64(sent))
	if attempted > 0 && sent == 0 {
		return fmt.Errorf("node: all %d floods failed: %w", attempted, lastErr)
	}
	return nil
}

// handle is the transport callback; frames arrive serialized. Every
// frame is decoded into pooled storage with the body aliasing frameBytes,
// so nothing decoded from a data frame outlives this call unless it is
// copied (see wire.Scratch, pushDelivery), and
// epoch-gated before any protocol processing (see epochGate). A heartbeat
// or delta must name its transport sender (see sentBy).
func (n *Node) handle(from topology.NodeID, frameBytes []byte) {
	sc := n.decPool.get()
	defer n.decPool.put(sc)
	frame, err := sc.DecodeBorrow(frameBytes)
	if err != nil {
		n.stats.decodeErrors.Add(1)
		return
	}
	switch frame.Kind {
	case wire.FrameHeartbeat:
		// Full-snapshot heartbeats carry no epoch and are not gated.
		if n.closed.Load() || !n.sentBy(from, frame.Heartbeat) {
			return
		}
		n.viewMu.Lock()
		err := n.view.MergeSnapshot(frame.Heartbeat)
		n.viewMu.Unlock()
		if err == nil {
			n.stats.heartbeatsReceived.Add(1)
		} else {
			n.stats.snapshotMergeErrors.Add(1)
		}
	case wire.FrameKnowledgeDelta:
		if !n.epochGate(from, frame.Delta.Epoch) || !n.sentBy(from, frame.Delta.Snap) {
			return
		}
		n.handleDelta(from, frame.Delta)
	case wire.FrameData:
		if !n.epochGate(from, frame.Data.Epoch) {
			return
		}
		n.handleData(from, frame.Data, frameBytes)
	case wire.FrameJoin, wire.FrameLeave:
		n.handleMembership(from, frame.Kind, frame.Member)
	}
}

// sentBy reports whether a heartbeat's snapshot names the peer the
// transport delivered it from, and counts a mismatch in
// SnapshotMergeErrors. The merge books the heartbeat's link evidence on
// (self, Snap.From) and learns that link if it is new, and the ack
// bookkeeping is keyed by the transport sender, so a frame claiming
// another sender would credit a link it never crossed and key state by
// an ID nothing has checked.
func (n *Node) sentBy(from topology.NodeID, s *knowledge.Snapshot) bool {
	if s.From == from {
		return true
	}
	n.stats.snapshotMergeErrors.Add(1)
	return false
}

// epochGate fences a data/delta frame against the node's membership
// epoch. Same epoch: process. Older epoch: the sender missed a
// membership change — drop the frame (its trees, version bookkeeping and
// roster assumptions belong to a dead membership view), count it, and
// re-send the announcement that created the current epoch so the laggard
// catches up in one frame. Newer epoch: this node is the laggard — drop
// the frame too (it cannot be interpreted against the old roster), and
// rely on the pull loop the drop creates: our next heartbeat reaches the
// ahead peer with a stale epoch, the peer re-announces, we adopt, and our
// cleared ack state makes both sides exchange full knowledge snapshots.
func (n *Node) epochGate(from topology.NodeID, frameEpoch uint64) bool {
	cur := n.epoch.Load()
	if frameEpoch == cur {
		return true
	}
	if frameEpoch < cur {
		n.stats.staleEpochFrames.Add(1)
		// Once per peer per heartbeat period (Tick clears the set): a
		// laggard mid-burst sends many stale frames, and answering each
		// with a full membership announcement would amplify its traffic.
		n.reannMu.Lock()
		first := !n.reannounced[from]
		n.reannounced[from] = true
		n.reannMu.Unlock()
		if first {
			if lc := n.lastChange.Load(); lc != nil && lc.frame != nil {
				_ = n.sendControl(from, lc.frame, nil)
			}
		}
	}
	return false
}

// handleMembership applies a join/leave announcement and relays it. The
// epoch number dedups the flood: announcements at or below the current
// epoch are drops (every member already applied them), strictly newer
// ones are applied — wholesale, since Membership carries the complete
// roster — and re-flooded to the rest of the neighborhood.
func (n *Node) handleMembership(from topology.NodeID, kind wire.FrameKind, m *wire.Membership) {
	if n.closed.Load() {
		return
	}
	if m.Node == n.cfg.ID && kind == wire.FrameLeave {
		return // the cluster says we left; nothing sensible to apply locally
	}
	if !n.applyMembership(kind, m) {
		return
	}
	// Relay the announcement (excluding whoever delivered it) so the
	// flood covers the cluster even though the roster is changing under
	// it; applyMembership just pre-encoded it into lastChange. Send
	// failures are tolerated: the stale-epoch re-announcement path
	// repairs any member the flood misses.
	if lc := n.lastChange.Load(); lc != nil && lc.frame != nil {
		for _, nb := range n.Neighbors() {
			if nb == from || nb == m.Node {
				continue
			}
			_ = n.sendControl(nb, lc.frame, nil)
		}
	}
}

// applyMembership installs a membership change: grow the view's ID space,
// tombstone departed members, splice the subject in or out of the local
// neighbor roster, adopt the epoch, and re-anchor everything derived from
// the old membership — the plan cache is invalidated, and the
// per-neighbor ack/seen/cadence state is reset so the next heartbeat
// exchange falls back to full snapshots (the knowledge pull that brings
// a joiner, or a laggard crossing several epochs at once, up to speed).
// It reports whether the change was newer than the current epoch and
// therefore applied.
func (n *Node) applyMembership(kind wire.FrameKind, m *wire.Membership) bool {
	n.memberMu.Lock()
	defer n.memberMu.Unlock()
	if m.Epoch <= n.epoch.Load() {
		return false
	}
	n.epoch.Store(m.Epoch)
	n.stats.epochChanges.Add(1)

	n.viewMu.Lock()
	n.view.Grow(m.NumProcs)
	n.procs.Store(int64(n.view.NumProcs()))
	n.delivered.grow(n.view.NumProcs())
	for _, d := range m.Departed {
		n.view.MarkDeparted(d)
	}
	joinsUs := false
	if kind == wire.FrameJoin {
		for _, nb := range m.Neighbors {
			if nb == n.cfg.ID {
				joinsUs = true
			}
		}
		if joinsUs {
			_ = n.view.AddNeighbor(m.Node)
		}
	}
	n.viewMu.Unlock()

	// Splice the roster copy-on-write; readers keep whatever snapshot
	// they loaded for the rest of their operation.
	old := n.Neighbors()
	roster := make([]topology.NodeID, 0, len(old)+1)
	for _, nb := range old {
		if n.isDepartedIn(m, nb) || nb == m.Node {
			continue // dropped (leaver, or re-announced joiner re-added below)
		}
		roster = append(roster, nb)
	}
	if joinsUs {
		roster = append(roster, m.Node)
	}
	n.nbs.Store(&roster)

	// Re-anchor: trees and version bookkeeping from the old epoch must
	// not serve the new one. Clearing peerAcked forces the full-snapshot
	// fallback toward every neighbor; clearing peerSeen makes this node
	// ack 0 until fresh full snapshots arrive, forcing the fallback in
	// the other direction too. Cadence controllers restart at one frame
	// per period, which also pushes the news out immediately.
	n.peerMu.Lock()
	for k := range n.peerSeen {
		delete(n.peerSeen, k)
	}
	for k := range n.peerAcked {
		delete(n.peerAcked, k)
	}
	n.peerMu.Unlock()
	if n.cad != nil {
		n.cadMu.Lock()
		for k := range n.cad {
			delete(n.cad, k)
		}
		n.cadMu.Unlock()
	}
	// The plan cache invalidates itself: Grow/MarkDeparted/AddNeighbor
	// bumped the view version it is keyed on.

	n.lastChange.Store(newMemberChange(kind, m))
	n.announceLeft.Store(announceRounds)
	return true
}

// isDepartedIn reports whether id is tombstoned by announcement m.
func (n *Node) isDepartedIn(m *wire.Membership, id topology.NodeID) bool {
	for _, d := range m.Departed {
		if d == id {
			return true
		}
	}
	return false
}

// AnnounceJoin floods this node's own join announcement to its neighbors.
// Call it once on a freshly constructed joiner (Config.Epoch set to the
// membership change's epoch, Config.Neighbors naming its links): the
// receiving members apply the change, learn their new link, and their
// next heartbeats deliver the full knowledge snapshots that fold the
// joiner into the running cluster.
func (n *Node) AnnounceJoin() error {
	if n.closed.Load() {
		return errors.New("node: stopped")
	}
	lc := n.lastChange.Load()
	if lc == nil || lc.kind != wire.FrameJoin || lc.member.Node != n.cfg.ID {
		return errors.New("node: not configured as a joiner (Config.Epoch unset)")
	}
	if lc.frame == nil {
		return errors.New("node: join announcement failed to encode")
	}
	for _, nb := range n.Neighbors() {
		if err := n.sendControl(nb, lc.frame, nil); err != nil {
			return fmt.Errorf("node: join announcement: %w", err)
		}
	}
	return nil
}

// AnnounceLeave removes a member from the running cluster on its behalf:
// this node applies the change locally (tombstoning the leaver, bumping
// the epoch) and floods the announcement. Call it on any surviving member
// — typically a neighbor of the departed process — after stopping the
// leaver. The new epoch is this node's epoch + 1; callers holding an
// authoritative membership ledger (the Cluster) use AnnounceLeaveAt so
// concurrent changes announced through different members cannot collide
// on one epoch number.
func (n *Node) AnnounceLeave(leaver topology.NodeID) error {
	return n.AnnounceLeaveAt(leaver, n.epoch.Load()+1)
}

// AnnounceLeaveAt is AnnounceLeave with an explicit epoch for the change,
// from an external membership ledger. epoch must be strictly greater than
// every epoch already announced, or the members that adopted the higher
// epoch will drop this announcement.
func (n *Node) AnnounceLeaveAt(leaver topology.NodeID, epoch uint64) error {
	n.viewMu.Lock()
	numProcs := n.view.NumProcs()
	already := n.view.Departed(leaver)
	departed := make([]topology.NodeID, 0, 4)
	for i := 0; i < numProcs; i++ {
		if n.view.Departed(topology.NodeID(i)) {
			departed = append(departed, topology.NodeID(i))
		}
	}
	n.viewMu.Unlock()
	if int(leaver) >= numProcs || leaver < 0 {
		return fmt.Errorf("node: leaver %d outside [0,%d)", leaver, numProcs)
	}
	if already {
		return fmt.Errorf("node: process %d already departed", leaver)
	}
	return n.AnnounceLeaveMembership(&wire.Membership{
		Node:     leaver,
		Epoch:    epoch,
		NumProcs: numProcs,
		Departed: append(departed, leaver),
	})
}

// AnnounceLeaveMembership applies and floods a fully specified leave
// announcement. Callers holding an authoritative ledger (the Cluster's
// graph) build the Membership from it rather than from this node's view,
// so the announced ID-space size and tombstone set stay correct even
// when this node has not yet caught up with an in-flight change — a
// leave must not erase a join it overtook. m.Departed must include
// m.Node; nothing is applied on error.
func (n *Node) AnnounceLeaveMembership(m *wire.Membership) error {
	if n.closed.Load() {
		return errors.New("node: stopped")
	}
	if m.Node == n.cfg.ID {
		return errors.New("node: cannot announce own departure")
	}
	if !n.isDepartedIn(m, m.Node) {
		return fmt.Errorf("node: leave announcement does not tombstone the leaver %d", m.Node)
	}
	if !n.applyMembership(wire.FrameLeave, m) {
		return errors.New("node: leave announcement lost an epoch race; retry")
	}
	lc := n.lastChange.Load()
	if lc == nil || lc.frame == nil {
		return errors.New("node: leave announcement failed to encode")
	}
	for _, nb := range n.Neighbors() {
		_ = n.sendControl(nb, lc.frame, nil) // only a stopped node refuses, and the change is applied
	}
	return nil
}

// handleDelta merges a delta heartbeat and advances the version
// bookkeeping of the ack chain. The merge itself is the ordinary Event 1
// (delta frames carry the sender and heartbeat sequence exactly like full
// heartbeats, so sequence-gap loss accounting is unaffected); what is
// delta-specific is when the sender's version may be acknowledged:
//
//   - A full snapshot (Since == 0) proves this view now holds everything
//     the sender had at Ver: overwrite the seen version (overwriting also
//     un-sticks the bookkeeping when the sender restarted with a smaller
//     version counter).
//   - A delta anchored at a base this node has seen (Since <= seen) extends
//     the held prefix to Ver.
//   - A delta anchored past what this node has seen (this node restarted
//     and lost its state while the sender still trusts a pre-crash ack)
//     is merged for whatever knowledge it carries, but NOT acked: the
//     stale ack this node keeps echoing makes the sender fall back to a
//     full snapshot, which repairs the gap one period later.
func (n *Node) handleDelta(from topology.NodeID, d *wire.KnowledgeDelta) {
	if n.closed.Load() {
		return
	}
	n.viewMu.Lock()
	// The declared cadence scales this view's expected-arrival accounting
	// for the sender: suspicion timeout and sequence-gap loss bookkeeping
	// both divide by the promised inter-frame gap.
	err := n.view.MergeSnapshotAt(d.Snap, int(d.Cadence))
	n.viewMu.Unlock()
	if err != nil {
		n.stats.snapshotMergeErrors.Add(1)
		return
	}
	n.stats.heartbeatsReceived.Add(1)
	n.peerMu.Lock()
	switch {
	case d.Since == 0:
		n.peerSeen[from] = d.Ver
	case d.Since <= n.peerSeen[from]:
		if d.Ver > n.peerSeen[from] {
			n.peerSeen[from] = d.Ver
		}
	}
	n.peerAcked[from] = d.Ack
	n.peerMu.Unlock()
}

// handleData is Algorithm 1 lines 5–7: deliver on first receipt, then
// keep propagating along the carried tree (or re-flood warm-up
// messages). A frame whose origin is outside the ID space is dropped
// whole and counted in DecodeErrors. raw is the encoded inbound frame;
// when the transport handed over its ownership the relay reuses (or
// splices) it instead of re-serializing — see relayDataFrame.
func (n *Node) handleData(from topology.NodeID, msg *wire.DataMsg, raw []byte) {
	if n.closed.Load() {
		return
	}
	if msg.Origin < 0 || int64(msg.Origin) >= n.procs.Load() {
		// No process of this ID space sent it: a forged origin would be
		// delivered, relayed and given a dedup entry that is never freed.
		n.stats.decodeErrors.Add(1)
		return
	}
	if msg.Piggyback != nil {
		// Piggybacked knowledge is merged on every copy, duplicates
		// included: each arrival carries the sender's current view. A
		// rejected snapshot (malformed estimator state, unknown process)
		// is surfaced in its own counter — the frame itself decoded fine,
		// and conflating the two hides malformed-peer problems from
		// operators; the data message is still delivered and forwarded.
		n.viewMu.Lock()
		err := n.view.MergeSnapshotKnowledgeOnly(msg.Piggyback)
		n.viewMu.Unlock()
		if err != nil {
			n.stats.snapshotMergeErrors.Add(1)
		}
	}
	if !n.delivered.mark(msg.Origin, msg.Seq) {
		return
	}
	n.stats.dataReceived.Add(1)
	deliver := true
	if n.cfg.DedupLog != nil {
		fresh, err := n.cfg.DedupLog.Record(dedup.ID{Origin: msg.Origin, Seq: msg.Seq})
		switch {
		case err != nil:
			// Logging failed: deliver anyway (degrade to at-least-once
			// rather than losing the message) and record the failure.
			n.stats.logErrors.Add(1)
		case !fresh:
			// Delivered before a crash in a previous incarnation:
			// suppress the replay but keep forwarding so the rest of the
			// tree is still served.
			deliver = false
			n.stats.suppressedReplays.Add(1)
		}
	}
	if deliver {
		body := msg.Body
		if !n.ownsFrames {
			// The transport recycles the buffer the body aliases; the
			// application keeps its delivery.
			body = append([]byte(nil), body...)
		}
		n.pushDelivery(Delivery{Origin: msg.Origin, Seq: msg.Seq, From: from, Body: body})
	}

	if len(msg.Parents) == 0 {
		// Relay flood: exclude the inbound sender, who by construction
		// already has the frame. Relay errors mean a knowledge snapshot
		// failed to encode; the message was already delivered locally, so
		// just drop the relay.
		if frame, release, err := n.relayDataFrame(msg, raw); err == nil {
			_ = n.flood(from, frame, release)
		}
		return
	}
	if err := mrt.CheckParents(msg.Root, msg.Parents); err != nil {
		n.stats.decodeErrors.Add(1)
		return
	}
	if int(n.cfg.ID) >= len(msg.Parents) {
		return // tree predates our membership; nothing to forward
	}
	frame, release, err := n.relayDataFrame(msg, raw)
	if err != nil {
		return
	}
	_ = n.forward(msg, frame, release)
}

// pushDelivery hands a delivery to the application without blocking the
// receive path; overflow is dropped and counted. Delivered counts only
// what was actually enqueued for the application — a message that hits a
// full buffer is a drop, not a delivery, so the two counters partition
// the outcomes instead of double-counting them.
func (n *Node) pushDelivery(d Delivery) {
	select {
	case n.deliveries <- d:
		n.stats.delivered.Add(1)
		if n.cfg.Hooks.OnDeliver != nil {
			n.cfg.Hooks.OnDeliver(d)
		}
	default:
		n.stats.droppedDeliveries.Add(1)
		if n.cfg.Hooks.OnDrop != nil {
			n.cfg.Hooks.OnDrop(d)
		}
	}
}
