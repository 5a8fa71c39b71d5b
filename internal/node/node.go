// Package node is the live runtime: a goroutine-driven implementation of
// the paper's full adaptive stack — the knowledge approximation activity
// (Algorithm 4) on a real clock and the reliable broadcast activity
// (Algorithm 1) — over a pluggable transport. The simulator and the live
// node share every algorithmic component (knowledge, mrt, optimize) and
// both planes, the heartbeat plane (heartbeat) and the data plane
// (dataplane), so the two cannot drift apart; the node adds timers, the
// lanes and the transport, stable-storage crash accounting, the
// exactly-once log and delivery plumbing.
//
// Concurrency is one node lock (Node.mu): Broadcast, the transport
// handler, Tick and membership changes each take it for one critical
// section, so every entry point is atomic against the others. Hooks,
// durable writes and sends run after the section, never under it, and
// every counter is an atomic.
//
// Steady-state bandwidth is kept flat by three mechanisms: heartbeats
// ship per-neighbor knowledge deltas against the version the neighbor
// last acked (package heartbeat; full-snapshot fallback when no ack
// anchors one),
// per-edge retransmission bursts leave through the lane scheduler as one
// SendN flush, and a relay reads its children straight off the parent
// vector a data frame carries instead of rebuilding the tree.
package node

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"adaptivecast/internal/dataplane"
	"adaptivecast/internal/dedup"
	"adaptivecast/internal/heartbeat"
	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/lanes"
	"adaptivecast/internal/pool"
	"adaptivecast/internal/queue"
	"adaptivecast/internal/topology"
	"adaptivecast/internal/transport"
	"adaptivecast/internal/wire"
)

// DefaultDeliveryBuffer is the default bound, in bytes, on what the
// delivery queue holds: the largest frame TCP accepts (64 MiB), so any
// single delivery fits an empty queue.
const DefaultDeliveryBuffer = 64 << 20

// ErrStopped is returned once the node is stopped: by Broadcast and the
// membership calls, and by Next when nothing is left to deliver.
var ErrStopped = errors.New("node: stopped")

// Delivery is one broadcast handed to the application, in the order the
// node accepted it (see Next).
type Delivery struct {
	Origin topology.NodeID // broadcast originator
	Seq    uint64          // originator-local sequence number
	From   topology.NodeID // immediate sender (tree parent), Origin for local broadcasts
	// Body is read-only; copy before modifying. On every transport it is
	// the node's own copy, apart from the inbound frame and every relay.
	// It may share a backing chunk with other deliveries (its capacity
	// ends where it does, so an append copies), so a retained body keeps
	// at most one such chunk alive. Config.DeliveryBuffer counts its
	// len, not that chunk.
	Body []byte
}

// Stats counts node-level events. Retrieve a snapshot with Node.Stats.
type Stats struct {
	HeartbeatsSent      int
	HeartbeatsReceived  int
	DeltaHeartbeatsSent int // heartbeats that shipped as knowledge deltas (subset of HeartbeatsSent)
	HeartbeatBytesSent  int // encoded heartbeat bytes handed to the transport
	// HeartbeatEncodeErrors counts heartbeats not sent because the
	// encoder refused their record section: a record outside the wire's
	// bounds, which every receiver would refuse too.
	HeartbeatEncodeErrors int
	// DataSent counts the data copies the plan allocated and handed to
	// the transport: m[j] per tree edge, one per neighbor on a flood.
	// Over TCP each entry crosses the wire once, however many it counts.
	DataSent            int
	DataReceived        int
	Delivered           int // deliveries actually queued for the application
	DroppedDeliveries   int // deliveries discarded because the queue was at its byte bound
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

	// Algorithm 3's verdicts on the process and link records that merged
	// heartbeats, deltas and piggybacks carried.
	ProcRecords, LinkRecords RecordVerdicts
}

// RecordVerdicts counts Algorithm 3's verdicts on received records of one
// kind: adopted (unknown here, or sent at a distortion below this node's),
// or rejected, sent at this node's distortion or above it.
type RecordVerdicts struct {
	Adopted       int
	RejectedEqual int
	RejectedAbove int
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
	heartbeatsSent        atomic.Int64
	heartbeatsReceived    atomic.Int64
	deltaHeartbeatsSent   atomic.Int64
	heartbeatBytesSent    atomic.Int64
	heartbeatEncodeErrors atomic.Int64
	dataSent              atomic.Int64
	dataReceived          atomic.Int64
	delivered             atomic.Int64
	droppedDeliveries     atomic.Int64
	suppressedReplays     atomic.Int64
	fallbackFloods        atomic.Int64
	decodeErrors          atomic.Int64
	snapshotMergeErrors   atomic.Int64
	logErrors             atomic.Int64
	planCacheHits         atomic.Int64
	planCacheMisses       atomic.Int64
	staleEpochFrames      atomic.Int64
	epochChanges          atomic.Int64
	// verdicts holds the view's knowledge.Verdicts, process then link
	// records, each adopted, rejected equal and rejected above; merges
	// publish them under mu (noteVerdicts) so Stats takes no lock.
	verdicts [2][3]atomic.Int64
}

func (c *counters) snapshot() Stats {
	return Stats{
		HeartbeatsSent:        int(c.heartbeatsSent.Load()),
		HeartbeatsReceived:    int(c.heartbeatsReceived.Load()),
		DeltaHeartbeatsSent:   int(c.deltaHeartbeatsSent.Load()),
		HeartbeatBytesSent:    int(c.heartbeatBytesSent.Load()),
		HeartbeatEncodeErrors: int(c.heartbeatEncodeErrors.Load()),
		DataSent:              int(c.dataSent.Load()),
		DataReceived:          int(c.dataReceived.Load()),
		Delivered:             int(c.delivered.Load()),
		DroppedDeliveries:     int(c.droppedDeliveries.Load()),
		SuppressedReplays:     int(c.suppressedReplays.Load()),
		FallbackFloods:        int(c.fallbackFloods.Load()),
		DecodeErrors:          int(c.decodeErrors.Load()),
		SnapshotMergeErrors:   int(c.snapshotMergeErrors.Load()),
		LogErrors:             int(c.logErrors.Load()),
		PlanCacheHits:         int(c.planCacheHits.Load()),
		PlanCacheMisses:       int(c.planCacheMisses.Load()),
		StaleEpochFrames:      int(c.staleEpochFrames.Load()),
		EpochChanges:          int(c.epochChanges.Load()),
		ProcRecords:           c.verdictsOf(0),
		LinkRecords:           c.verdictsOf(1),
	}
}

func (c *counters) verdictsOf(kind int) RecordVerdicts {
	v := &c.verdicts[kind]
	return RecordVerdicts{int(v[0].Load()), int(v[1].Load()), int(v[2].Load())}
}

// noteVerdicts publishes the view's verdict counts to Stats; it is called
// with mu held, after a merge.
func (n *Node) noteVerdicts() {
	procs, links := n.view.Verdicts()
	for kind, v := range [2]knowledge.Verdicts{procs, links} {
		c := &n.stats.verdicts[kind]
		c[0].Store(int64(v.Adopted))
		c[1].Store(int64(v.RejectedEqual))
		c[2].Store(int64(v.RejectedAbove))
	}
}

// Hooks are optional instrumentation callbacks. They are invoked
// synchronously from protocol goroutines with no node lock held, so
// implementations may call back into the node but must stay fast; nil
// fields are skipped.
type Hooks struct {
	// OnDeliver fires after a delivery was queued for the application.
	OnDeliver func(Delivery)
	// OnDrop fires when a delivery is discarded because it would take the
	// delivery queue over Config.DeliveryBuffer bytes (the drop is also
	// counted in Stats).
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
	// default; a node created to join a running cluster declares the
	// bumped epoch of the membership change that admits it.
	Epoch uint64
	// Departed lists the processes already tombstoned as of Epoch, so a
	// joiner's view starts aligned with the cluster's roster instead of
	// waiting for announcements.
	Departed []topology.NodeID
	// K is the reliability target (default dataplane.DefaultK).
	K float64
	// HeartbeatEvery is δ, the heartbeat period (default 1s).
	HeartbeatEvery time.Duration
	// Knowledge tunes the view (suspicion timeouts, link aging, the
	// delta threshold).
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
	// DeliveryBuffer bounds, in bytes, what the delivery queue holds for
	// an application that lags: each queued delivery weighs its body plus
	// its own size (default DefaultDeliveryBuffer). The queue grows on
	// demand up to the bound; a delivery that would cross it is dropped
	// and counted in Stats.DroppedDeliveries.
	DeliveryBuffer int
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
		c.K = dataplane.DefaultK
	}
	if c.HeartbeatEvery == 0 {
		c.HeartbeatEvery = time.Second
	}
	if c.DeliveryBuffer == 0 {
		c.DeliveryBuffer = DefaultDeliveryBuffer
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
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

	// mu is the node lock. It guards the knowledge view and its heartbeat
	// and data planes (hb, plane: the ack chains, the plan cache and the
	// dedup watermarks), the re-announcement budget (reannounced), the
	// membership state (epoch, nbs, lastChange,
	// announceLeft) and the sequencer (seq). Three kinds of call are
	// never made under it: hooks (a hook may call back into the node),
	// durable writes (Storage.SaveMark, DedupLog.Record) and sends
	// (sendControl, sendData). Each entry point takes it for one
	// critical section and does that work after it.
	mu sync.Mutex
	// view is this process's knowledge approximation (Algorithm 4).
	view *knowledge.View
	// epoch is the membership epoch this node operates in; frames from
	// older epochs are fenced off, newer epochs are adopted from
	// membership announcements. nbs is the current neighbor roster,
	// replaced whole on a change, so a caller may keep the slice it read.
	// lastChange backs re-announcements; nil until the first membership
	// change. reannounced is the per-peer once-per-period limit on
	// stale-epoch re-announcements, and announceLeft counts the periods
	// Tick still re-floods lastChange: announcements ride lossy links
	// like any frame, and a few redundant rounds bound the chance a
	// member misses a change even where the stale-epoch repair loop
	// cannot see it.
	epoch        uint64
	nbs          []topology.NodeID
	lastChange   *memberChange
	reannounced  map[topology.NodeID]bool
	announceLeft int
	// seq is the broadcast sequencer.
	seq uint64
	// hb is the heartbeat plane over view: the ack chain toward and from
	// each neighbor. plane is the data plane: the plan cache keyed by the
	// view's version, and the dedup watermarks, one per process.
	hb    *heartbeat.Plane
	plane *dataplane.Plane

	// decPool holds the decode storage handle borrows per inbound frame:
	// transports serialize a node's handler, so one is in use at a time,
	// and the pool keeps a test calling handle concurrently safe.
	decPool pool.Pool[decStore]

	// lanes is the prioritized send scheduler every frame leaves through
	// (see sendpath.go). encPool recycles outbound frame encode buffers
	// across sends (sound because of the transport Send ownership rule:
	// buffers are only borrowed for the duration of a send).
	lanes   *lanes.Scheduler
	encPool pool.Pool[encBuf]

	// seqLease is the broadcast sequence floor currently persisted in
	// stable storage: always >= any issued seq, so a crash can never lead
	// to sequence reuse (which peers' dedup watermarks would silently
	// censor). Broadcasts that catch up with the lease extend it
	// synchronously under leaseMu before the new seq escapes the node.
	// leaseMu orders those writes against Tick's mark and is never held
	// together with mu, so a slow write stalls neither the handler nor a
	// broadcast that needs no extension.
	seqLease atomic.Uint64
	leaseMu  sync.Mutex

	stats counters

	closed  atomic.Bool
	started atomic.Bool

	// deliveries queues what the application has yet to take with Next.
	deliveries queue.Ring[Delivery]

	stop      chan struct{}
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
	if math.IsNaN(cfg.K) || cfg.K <= 0 || cfg.K >= 1 {
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
		cfg:         cfg,
		view:        view,
		epoch:       cfg.Epoch,
		nbs:         append([]topology.NodeID(nil), cfg.Neighbors...),
		reannounced: make(map[topology.NodeID]bool),
		hb:          heartbeat.New(view),
		plane:       dataplane.New(cfg.ID, cfg.K, view, cfg.Piggyback),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	n.deliveries.Init(cfg.DeliveryBuffer, deliveryBytes)
	n.initEncodePool()
	if cfg.Epoch > 0 {
		// A node constructed mid-epoch (a joiner) can catch laggard peers
		// up on its own membership change, and re-floods it for a few
		// periods in case the AnnounceJoin flood is lost.
		n.lastChange = newMemberChange(wire.FrameJoin, &wire.Membership{
			Node:      cfg.ID,
			Epoch:     cfg.Epoch,
			NumProcs:  cfg.NumProcs,
			Departed:  cfg.Departed,
			Neighbors: n.nbs,
		})
		n.announceLeft = announceRounds
	}
	// Resume broadcast sequencing above anything this node may have
	// issued before a crash — the persisted sequence floor and/or the
	// dedup log's high-water mark — so post-recovery broadcasts get fresh
	// IDs instead of being silently censored by every live peer's dedup
	// watermark.
	var resume uint64
	if cfg.Storage != nil {
		mark, seqFloor, ok, err := cfg.Storage.LoadMark()
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
		}
	}
	if cfg.DedupLog != nil {
		if m := cfg.DedupLog.MaxSeq(cfg.ID); m > resume {
			resume = m
		}
	}
	n.seq = resume
	n.lanes = lanes.New(tr, lanes.Config{QueueDepth: cfg.LaneQueueDepth})
	tr.SetHandler(n.handle)
	return n, nil
}

// Start launches the heartbeat activity. It is idempotent.
func (n *Node) Start() {
	n.startOnce.Do(func() {
		n.started.Store(true)
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
		// Deliveries already queued stay for Next; none is added.
		n.deliveries.Close()
	})
}

// ID returns the node's process identity.
func (n *Node) ID() topology.NodeID { return n.cfg.ID }

// Epoch returns the membership epoch the node currently operates in.
func (n *Node) Epoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch
}

// Neighbors returns the current neighbor roster (a shared snapshot;
// callers must not modify it). The roster changes when membership
// announcements add or remove adjacent processes.
func (n *Node) Neighbors() []topology.NodeID {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.nbs
}

// Next returns the oldest delivery the application has not taken yet,
// blocking until one is queued, ctx is done (ctx's error), or the node
// is stopped and every delivery queued before Stop has been taken
// (ErrStopped). A queued delivery is returned even when ctx is already
// done, so a done ctx takes what is queued without waiting. Any number
// of goroutines may call it; each delivery goes to one of them. A
// delivered Body is read-only; copy before modifying: it may share a
// backing chunk with other deliveries (see Delivery).
func (n *Node) Next(ctx context.Context) (Delivery, error) {
	for {
		d, r := n.deliveries.Pop()
		switch r {
		case queue.Popped:
			return d, nil
		case queue.Drained:
			return Delivery{}, ErrStopped
		}
		select {
		case <-n.deliveries.Wake():
		case <-ctx.Done():
			return Delivery{}, ctx.Err()
		}
	}
}

// Stats returns a snapshot of the node counters, folding in the send
// path's scheduler and encode-pool counters.
func (n *Node) Stats() Stats {
	s := n.stats.snapshot()
	s.EncodePoolHits = int(n.encPool.Hits())
	s.EncodePoolMisses = int(n.encPool.Misses())
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
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.view.CrashEstimate(i)
}

// LossEstimate reads the node's current estimate of link l.
func (n *Node) LossEstimate(l topology.Link) (mean float64, dist int, ok bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.view.LossEstimate(l)
}

// KnownLinks reports the links the node has discovered.
func (n *Node) KnownLinks() []topology.Link {
	n.mu.Lock()
	defer n.mu.Unlock()
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
// version that neighbor last acked, less those it is known to hold at no
// greater distortion — the ones it supplied, the link between us, and
// the process and link records it last sent at our distortion or below
// (split and sibling horizon, knowledge.View.AppendOmitted) — or a full
// snapshot while the acked version is unknown or unanchorable. A delta empties
// only once no shipped record moves past DeltaEpsilon, which on
// lossless links happens within a few hundred periods and on lossy ones
// takes about 10⁴ observations per record; until then the two horizons
// keep a neighbor's frame from carrying copies it would reject.
func (n *Node) Tick() {
	if n.closed.Load() {
		return
	}
	ws := periods.Get()
	defer periods.Put(ws)

	n.mu.Lock()
	// Re-arm the per-peer stale-epoch re-announcement budget (see
	// epochGate): one repair frame per laggard per period.
	clear(n.reannounced)
	// Redundant membership announcement rounds (see announceRounds): a
	// recent join/leave is re-flooded with the heartbeats so a lossy link
	// cannot silently strand a member in the old epoch.
	var announce *memberChange
	if n.announceLeft > 0 {
		n.announceLeft--
		announce = n.lastChange
	}
	// The roster and epoch are read once per period: membership changes
	// landing after the section take effect next period.
	neighbors, epoch := n.nbs, n.epoch
	n.hb.Cut(ws, neighbors)
	n.mu.Unlock()

	if announce != nil && announce.frame != nil {
		for _, nb := range neighbors {
			if nb != announce.member.Node {
				_ = n.sendControl(nb, announce.frame, nil)
			}
		}
	}
	if n.cfg.Storage != nil {
		// A failed mark is not fatal: it only degrades the crash
		// self-estimate after the next restart. The persisted sequence
		// floor is the current lease, never the raw issued seq — the lease
		// invariant (floor >= every issued seq) must survive the write, so
		// the load+write pair is serialized under leaseMu against
		// concurrent extensions from Broadcast: an unordered write here
		// could clobber a freshly extended (and already relied-upon) lease
		// with a stale floor.
		n.leaseMu.Lock()
		_ = n.cfg.Storage.SaveMark(n.cfg.Now(), n.seqLease.Load())
		n.leaseMu.Unlock()
	}

	// Each neighbor's frame is its own header followed by the records of
	// its cut it is sent, copied out of a section the period encodes once
	// per distinct cut.
	sent, deltas := 0, 0
	for i, o := range ws.Outbound() {
		eb := n.takeEncBuf()
		frame, err := ws.AppendFrame(eb.b, i, epoch)
		if err != nil {
			eb.done()
			n.stats.heartbeatEncodeErrors.Add(1)
			continue
		}
		eb.b = frame
		err = n.sendControl(o.To, frame, eb.acquire())
		eb.done()
		if err == nil {
			sent++
			n.stats.heartbeatBytesSent.Add(int64(len(frame)))
			if o.Since > 0 {
				deltas++
			}
		}
	}
	n.stats.heartbeatsSent.Add(int64(sent))
	n.stats.deltaHeartbeatsSent.Add(int64(deltas))
}

// periods recycles heartbeat-period workspaces process-wide, for the
// reason the data plane pools its replan workspaces: Tick is not
// serialized against itself, and a workspace per node would sit in the
// heap between periods.
var periods = pool.Pool[heartbeat.Period]{Reset: (*heartbeat.Period).Reset}

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
		return 0, 0, ErrStopped
	}
	n.mu.Lock()
	n.seq++
	seq = n.seq
	msg := &wire.DataMsg{Origin: n.cfg.ID, Seq: seq, Root: n.cfg.ID, Body: body, Epoch: n.epoch}
	l := n.plane.Broadcast(msg, n.nbs)
	n.mu.Unlock()

	if n.cfg.Storage != nil {
		n.ensureSeqLease(seq)
	}
	if n.cfg.DedupLog != nil {
		if _, err := n.cfg.DedupLog.Record(dedup.ID{Origin: n.cfg.ID, Seq: seq}); err != nil {
			n.stats.logErrors.Add(1)
		}
	}
	if l.Fresh {
		n.stats.planCacheMisses.Add(1)
	} else {
		n.stats.planCacheHits.Add(1)
	}
	switch {
	case l.Plan.Err != nil:
		n.stats.fallbackFloods.Add(1)
	case l.Fresh && n.cfg.Hooks.OnTreeRebuild != nil:
		n.cfg.Hooks.OnTreeRebuild(seq, l.Plan.Edges, l.Planned)
	}
	n.pushDelivery(Delivery{Origin: n.cfg.ID, Seq: seq, From: n.cfg.ID, Body: body})

	// Encode once: every send consumes the same frame bytes (and the same
	// pooled buffer, recycled after the last send).
	frame, eb, err := n.encodeDataFrame(msg, nil, l.Snap)
	if err != nil {
		return seq, l.Planned, err
	}
	return seq, l.Planned, n.send(l.Sends, frame, eb)
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
	if err := n.cfg.Storage.SaveMark(n.cfg.Now(), lease); err != nil {
		n.stats.logErrors.Add(1)
		return
	}
	n.seqLease.Store(lease)
}

// handle is the transport callback; frames arrive serialized. Every
// frame is decoded into pooled storage with the body aliasing frameBytes,
// which the transport takes back when handle returns, so nothing decoded
// from a data frame outlives this call unless it is copied (see
// wire.Scratch, decStore.keep), and
// epoch-gated before any protocol processing (see epochGate). A heartbeat
// or delta must name its transport sender (see sentBy, heartbeat.ErrSender). Each frame kind
// takes mu for one critical section; what it decides to send, record or
// deliver runs after it.
func (n *Node) handle(from topology.NodeID, frameBytes []byte) {
	ds := n.decPool.Get()
	defer n.decPool.Put(ds)
	frame, err := ds.DecodeBorrow(frameBytes)
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
		n.mu.Lock()
		err := n.view.MergeSnapshot(frame.Heartbeat)
		n.noteVerdicts()
		n.mu.Unlock()
		if err == nil {
			n.stats.heartbeatsReceived.Add(1)
		} else {
			n.stats.snapshotMergeErrors.Add(1)
		}
	case wire.FrameKnowledgeDelta:
		n.mu.Lock()
		repair, ok := n.epochGate(from, frame.Delta.Epoch)
		if ok && !n.closed.Load() {
			// The declared cadence (1 from every node) scales this
			// view's expected-arrival accounting for the sender:
			// suspicion timeout and sequence-gap loss bookkeeping both
			// divide by the promised inter-frame gap.
			err := n.hb.Receive(from, frame.Delta)
			n.noteVerdicts()
			if err == nil {
				n.stats.heartbeatsReceived.Add(1)
			} else {
				n.stats.snapshotMergeErrors.Add(1)
			}
		}
		n.mu.Unlock()
		n.sendRepair(from, repair)
	case wire.FrameData:
		n.mu.Lock()
		repair, ok := n.epochGate(from, frame.Data.Epoch)
		var rx dataplane.Receipt
		if ok {
			rx = n.acceptData(from, frame.Data)
		}
		n.mu.Unlock()
		n.sendRepair(from, repair)
		n.handleData(from, frame.Data, frameBytes, rx, ds)
	case wire.FrameJoin, wire.FrameLeave:
		n.handleMembership(from, frame.Kind, frame.Member)
	}
}

// sentBy reports whether a full heartbeat's snapshot names the peer the
// transport delivered it from, and counts a mismatch in
// SnapshotMergeErrors, for the reason heartbeat.Plane.Receive refuses a
// delta naming another sender (heartbeat.ErrSender).
func (n *Node) sentBy(from topology.NodeID, s *knowledge.Snapshot) bool {
	if s.From == from {
		return true
	}
	n.stats.snapshotMergeErrors.Add(1)
	return false
}

// epochGate fences a data/delta frame against the node's membership
// epoch; it is called with mu held. Same epoch: process. Older epoch: the
// sender missed a membership change — drop the frame (its trees, version
// bookkeeping and roster assumptions belong to a dead membership view),
// count it, and return the announcement that created the current epoch as
// the repair to send, so the laggard catches up in one frame. Newer
// epoch: this node is the laggard — drop the frame too (it cannot be
// interpreted against the old roster), and rely on the pull loop the drop
// creates: our next heartbeat reaches the ahead peer with a stale epoch,
// the peer re-announces, we adopt, and our cleared ack state makes both
// sides exchange full knowledge snapshots.
func (n *Node) epochGate(from topology.NodeID, frameEpoch uint64) (repair []byte, ok bool) {
	if frameEpoch == n.epoch {
		return nil, true
	}
	if frameEpoch < n.epoch {
		n.stats.staleEpochFrames.Add(1)
		// Once per peer per heartbeat period (Tick clears the set): a
		// laggard mid-burst sends many stale frames, and answering each
		// with a full membership announcement would amplify its traffic.
		first := !n.reannounced[from]
		n.reannounced[from] = true
		if first && n.lastChange != nil {
			repair = n.lastChange.frame
		}
	}
	return repair, false
}

// sendRepair sends the re-announcement epochGate returned, if any.
func (n *Node) sendRepair(to topology.NodeID, repair []byte) {
	if repair != nil {
		_ = n.sendControl(to, repair, nil)
	}
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
	// Relay the announcement (excluding whoever delivered it) so the
	// flood covers the cluster even though the roster is changing under
	// it; applyMembership just pre-encoded it. Send failures are
	// tolerated: the stale-epoch re-announcement path repairs any member
	// the flood misses.
	lc, roster := n.applyMembership(kind, m)
	if lc == nil || lc.frame == nil {
		return
	}
	for _, nb := range roster {
		if nb != from && nb != m.Node {
			_ = n.sendControl(nb, lc.frame, nil)
		}
	}
}

// applyMembership installs a membership change in one critical section:
// grow the view's ID space, tombstone departed members, splice the
// subject in or out of the local neighbor roster, adopt the epoch, and
// re-anchor everything derived from the old membership — the plan cache
// is invalidated, and the per-neighbor ack/seen state is reset so
// the next heartbeat exchange falls back to full snapshots (the knowledge
// pull that brings a joiner, or a laggard crossing several epochs at
// once, up to speed). When the change is newer than the current epoch it
// returns the announcement as applied and the new roster to flood it to;
// otherwise nil.
func (n *Node) applyMembership(kind wire.FrameKind, m *wire.Membership) (*memberChange, []topology.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if m.Epoch <= n.epoch {
		return nil, nil
	}
	n.epoch = m.Epoch
	n.stats.epochChanges.Add(1)

	n.view.Grow(m.NumProcs)
	for _, d := range m.Departed {
		n.view.MarkDeparted(d)
	}
	joinsUs := kind == wire.FrameJoin && slices.Contains(m.Neighbors, n.cfg.ID)
	if joinsUs {
		_ = n.view.AddNeighbor(m.Node)
	}

	// Install a fresh roster: callers keep whatever slice they read.
	roster := make([]topology.NodeID, 0, len(n.nbs)+1)
	for _, nb := range n.nbs {
		if slices.Contains(m.Departed, nb) || nb == m.Node {
			continue // dropped (leaver, or re-announced joiner re-added below)
		}
		roster = append(roster, nb)
	}
	if joinsUs {
		roster = append(roster, m.Node)
	}
	n.nbs = roster

	// Re-anchor: trees and version bookkeeping from the old epoch must
	// not serve the new one. The plane's reset forces the full-snapshot
	// fallback in both directions (heartbeat.Plane.Reset). The plan
	// cache invalidates itself: Grow/MarkDeparted/AddNeighbor bumped the
	// view version it is keyed on.
	n.hb.Reset()

	n.lastChange = newMemberChange(kind, m)
	n.announceLeft = announceRounds
	return n.lastChange, roster
}

// AnnounceJoin floods this node's own join announcement to its neighbors.
// Call it once on a freshly constructed joiner (Config.Epoch set to the
// membership change's epoch, Config.Neighbors naming its links): the
// receiving members apply the change, learn their new link, and their
// next heartbeats deliver the full knowledge snapshots that fold the
// joiner into the running cluster.
func (n *Node) AnnounceJoin() error {
	if n.closed.Load() {
		return ErrStopped
	}
	n.mu.Lock()
	lc, roster := n.lastChange, n.nbs
	n.mu.Unlock()
	if lc == nil || lc.kind != wire.FrameJoin || lc.member.Node != n.cfg.ID {
		return errors.New("node: not configured as a joiner (Config.Epoch unset)")
	}
	if lc.frame == nil {
		return errors.New("node: join announcement failed to encode")
	}
	for _, nb := range roster {
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
	return n.AnnounceLeaveAt(leaver, n.Epoch()+1)
}

// AnnounceLeaveAt is AnnounceLeave with an explicit epoch for the change,
// from an external membership ledger. epoch must be strictly greater than
// every epoch already announced, or the members that adopted the higher
// epoch will drop this announcement.
func (n *Node) AnnounceLeaveAt(leaver topology.NodeID, epoch uint64) error {
	n.mu.Lock()
	numProcs := n.view.NumProcs()
	already := n.view.Departed(leaver)
	departed := make([]topology.NodeID, 0, 4)
	for i := 0; i < numProcs; i++ {
		if n.view.Departed(topology.NodeID(i)) {
			departed = append(departed, topology.NodeID(i))
		}
	}
	n.mu.Unlock()
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
		return ErrStopped
	}
	if m.Node == n.cfg.ID {
		return errors.New("node: cannot announce own departure")
	}
	if !slices.Contains(m.Departed, m.Node) {
		return fmt.Errorf("node: leave announcement does not tombstone the leaver %d", m.Node)
	}
	lc, roster := n.applyMembership(wire.FrameLeave, m)
	if lc == nil {
		return errors.New("node: leave announcement lost an epoch race; retry")
	}
	if lc.frame == nil {
		return errors.New("node: leave announcement failed to encode")
	}
	for _, nb := range roster {
		_ = n.sendControl(nb, lc.frame, nil) // only a stopped node refuses, and the change is applied
	}
	return nil
}

// acceptData runs the data plane's receipt decision (Algorithm 1 lines
// 5–7, dataplane.Plane.Receive) with mu held, and counts it: a frame or
// relay the plane refused in DecodeErrors, a piggybacked snapshot the
// view rejected in SnapshotMergeErrors (the frame decoded fine, and is
// still delivered and relayed).
func (n *Node) acceptData(from topology.NodeID, msg *wire.DataMsg) (rx dataplane.Receipt) {
	if n.closed.Load() {
		return rx
	}
	rx = n.plane.Receive(from, msg, n.nbs)
	if rx.Refused != nil {
		n.stats.decodeErrors.Add(1)
	}
	if rx.MergeErr != nil {
		n.stats.snapshotMergeErrors.Add(1)
	}
	if msg.Piggyback != nil {
		n.noteVerdicts()
	}
	if rx.Fresh {
		n.stats.dataReceived.Add(1)
	}
	return rx
}

// handleData finishes a data frame after acceptData's critical section:
// deliver a copy of the body (ds.keep) on first receipt, then keep
// propagating along the carried tree (or re-flood warm-up messages). raw
// is the encoded inbound frame, which the relay copies (or splices) into
// a pooled buffer instead of re-serializing msg — see encodeDataFrame.
func (n *Node) handleData(from topology.NodeID, msg *wire.DataMsg, raw []byte, rx dataplane.Receipt, ds *decStore) {
	if !rx.Fresh {
		return
	}
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
		n.pushDelivery(Delivery{Origin: msg.Origin, Seq: msg.Seq, From: from, Body: ds.keep(msg.Body)})
	}
	if !rx.Relay {
		return
	}
	// A relay frame fails only to encode a knowledge snapshot; the message
	// was already delivered locally, so the relay is dropped.
	if frame, eb, err := n.encodeDataFrame(msg, raw, rx.Snap); err == nil {
		_ = n.send(rx.Sends, frame, eb)
	}
}

// decStore is the decode storage handle takes per inbound frame: the
// Scratch the frame is decoded into, and the chunk delivered bodies are
// carved from. The chunk never rewinds: a full one is replaced, so it
// lives exactly as long as the deliveries carved from it, and one no
// delivery references is collected with the pooled value it rides in.
type decStore struct {
	wire.Scratch
	bodies []byte
}

// bodyChunk is the size of a chunk; a body over bodyChunk/8 is copied
// alone, so a large body neither wastes a chunk's tail nor keeps one
// alive.
const bodyChunk = 1 << 10

// keep returns the node's own copy of a delivered body: carved from the
// chunk when it is small, nil when it is empty.
func (ds *decStore) keep(body []byte) []byte {
	if len(body) == 0 || len(body) > bodyChunk/8 {
		return append([]byte(nil), body...)
	}
	if cap(ds.bodies)-len(ds.bodies) < len(body) {
		ds.bodies = make([]byte, 0, bodyChunk)
	}
	at := len(ds.bodies)
	ds.bodies = append(ds.bodies, body...)
	return ds.bodies[at:len(ds.bodies):len(ds.bodies)]
}

// deliveryBytes is what a queued delivery weighs against
// Config.DeliveryBuffer: its body and its own size.
func deliveryBytes(d Delivery) int { return int(unsafe.Sizeof(d)) + len(d.Body) }

// pushDelivery queues a delivery for the application without blocking the
// receive path; one that would take the queue over its byte bound is
// dropped and counted. Delivered counts only what was actually queued —
// a drop is not a delivery, so the two counters partition the outcomes
// instead of double-counting them. A stopped node queues nothing more.
func (n *Node) pushDelivery(d Delivery) {
	switch n.deliveries.Put(d) {
	case queue.Accepted:
		n.stats.delivered.Add(1)
		if n.cfg.Hooks.OnDeliver != nil {
			n.cfg.Hooks.OnDeliver(d)
		}
	case queue.Full:
		n.stats.droppedDeliveries.Add(1)
		if n.cfg.Hooks.OnDrop != nil {
			n.cfg.Hooks.OnDrop(d)
		}
	}
}
