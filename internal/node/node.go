// Package node is the paper's adaptive protocol — the knowledge
// approximation activity (Algorithm 4) and the reliable broadcast
// activity (Algorithm 1) — and its live runtime. Core is the protocol
// with no I/O (core.go): both planes (heartbeat, dataplane), the
// membership epochs and the sequencer, driven by the live Node here and
// by the discrete-event twin (internal/broadcast), so the two cannot
// drift apart. Node adds a real clock, the lanes and the transport,
// stable-storage crash accounting, the exactly-once log and delivery.
//
// Concurrency is one node lock (Node.mu) around the Core: Broadcast, the
// transport handler, Tick and membership changes each take it for one
// call into the core, so every entry point is atomic against the others.
// The Effects the call decided — sends, durable writes, deliveries and
// hooks — are carried out after it, never under it, and every counter is
// an atomic.
package node

import (
	"context"
	"errors"
	"fmt"
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
	SnapshotMergeErrors int // well-formed frames whose knowledge snapshot the view rejected, that named another sender, or of a kind no node sends
	LogErrors           int // durable-write failures: dedup log records and seq-lease extensions
	PlanCacheHits       int // broadcasts that reused the cached (tree, allocation) plan
	PlanCacheMisses     int // broadcasts that had to replan because the view changed
	StaleEpochFrames    int // frames fenced off because they carried an older membership epoch
	AheadEpochFrames    int // frames fenced off because they carried a newer membership epoch
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
	deltaHeartbeatsSent   atomic.Int64
	heartbeatBytesSent    atomic.Int64
	heartbeatEncodeErrors atomic.Int64
	dataSent              atomic.Int64
	delivered             atomic.Int64
	droppedDeliveries     atomic.Int64
	suppressedReplays     atomic.Int64
	fallbackFloods        atomic.Int64
	decodeErrors          atomic.Int64
	snapshotMergeErrors   atomic.Int64
	logErrors             atomic.Int64
	planCacheHits         atomic.Int64
	planCacheMisses       atomic.Int64
	// outcomes counts the core's outcomes by kind (see count).
	outcomes [Adopted + 1]atomic.Int64
	// verdicts holds the view's knowledge.Verdicts, process then link
	// records, each adopted, rejected equal and rejected above; merges
	// publish them under mu (noteVerdicts) so Stats takes no lock.
	verdicts [2][3]atomic.Int64
}

func (c *counters) snapshot() Stats {
	return Stats{
		HeartbeatsSent:        int(c.heartbeatsSent.Load()),
		HeartbeatsReceived:    c.of(Merged),
		DeltaHeartbeatsSent:   int(c.deltaHeartbeatsSent.Load()),
		HeartbeatBytesSent:    int(c.heartbeatBytesSent.Load()),
		HeartbeatEncodeErrors: int(c.heartbeatEncodeErrors.Load()),
		DataSent:              int(c.dataSent.Load()),
		DataReceived:          c.of(Delivered),
		Delivered:             int(c.delivered.Load()),
		DroppedDeliveries:     int(c.droppedDeliveries.Load()),
		SuppressedReplays:     int(c.suppressedReplays.Load()),
		FallbackFloods:        int(c.fallbackFloods.Load()),
		DecodeErrors:          int(c.decodeErrors.Load()) + c.of(Forged),
		SnapshotMergeErrors:   int(c.snapshotMergeErrors.Load()) + c.of(Refused),
		LogErrors:             int(c.logErrors.Load()),
		PlanCacheHits:         int(c.planCacheHits.Load()),
		PlanCacheMisses:       int(c.planCacheMisses.Load()),
		StaleEpochFrames:      c.of(Stale),
		AheadEpochFrames:      c.of(Ahead),
		EpochChanges:          c.of(Adopted),
		ProcRecords:           c.verdictsOf(0),
		LinkRecords:           c.verdictsOf(1),
	}
}

func (c *counters) of(o Outcome) int { return int(c.outcomes[o].Load()) }

func (c *counters) verdictsOf(kind int) RecordVerdicts {
	v := &c.verdicts[kind]
	return RecordVerdicts{int(v[0].Load()), int(v[1].Load()), int(v[2].Load())}
}

// noteVerdicts publishes the view's verdict counts to Stats; the node
// calls it with mu held, after a merge.
func (c *counters) noteVerdicts(view *knowledge.View) {
	procs, links := view.Verdicts()
	for kind, v := range [2]knowledge.Verdicts{procs, links} {
		c := &c.verdicts[kind]
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

// Node is one live process.
type Node struct {
	cfg Config

	// mu is the node lock. It guards core, the protocol's state: the
	// view, both planes, the membership and the sequencer. Three kinds of
	// call are never made under it: hooks (a hook may call back into the
	// node), durable writes (Storage.SaveMark, DedupLog.Record) and sends
	// (sendControl, send). Each entry point takes it for one call into
	// core and carries out the Effects it decided after it (apply).
	mu   sync.Mutex
	core *Core

	// decPool holds the storage of one call into core: the Effects buffer,
	// and for an inbound frame what handle decodes it into. Transports
	// serialize a node's handler, so one is in use at a time per handler,
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
	core, err := NewCore(cfg, nil)
	if err != nil {
		return nil, err
	}
	n := &Node{cfg: cfg, core: core, stop: make(chan struct{}), done: make(chan struct{})}
	// A pooled Effects keeps no body, frame or snapshot alive.
	n.decPool.Reset = func(ds *decStore) bool { ds.fx.Reset(); return true }
	n.deliveries.Init(cfg.DeliveryBuffer, deliveryBytes)
	n.initEncodePool()
	// Resume broadcast sequencing above anything this node may have
	// issued before a crash — the persisted sequence floor and/or the
	// dedup log's high-water mark — so post-recovery broadcasts get fresh
	// IDs instead of being silently censored by every live peer's dedup
	// watermark.
	var missed int
	var resume uint64
	if cfg.Storage != nil {
		mark, seqFloor, ok, err := cfg.Storage.LoadMark()
		if err != nil {
			return nil, err
		}
		if ok {
			missed = int(cfg.Now().Sub(mark) / cfg.HeartbeatEvery)
			resume = seqFloor
			n.seqLease.Store(seqFloor)
		}
	}
	if cfg.DedupLog != nil {
		resume = max(resume, cfg.DedupLog.MaxSeq(cfg.ID))
	}
	core.Recover(missed, resume)
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
	return n.core.epoch
}

// Neighbors returns the current neighbor roster (a shared snapshot;
// callers must not modify it). The roster changes when membership
// announcements add or remove adjacent processes.
func (n *Node) Neighbors() []topology.NodeID {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.core.nbs
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
	return n.core.view.CrashEstimate(i)
}

// LossEstimate reads the node's current estimate of link l.
func (n *Node) LossEstimate(l topology.Link) (mean float64, dist int, ok bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.core.view.LossEstimate(l)
}

// KnownLinks reports the links the node has discovered.
func (n *Node) KnownLinks() []topology.Link {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.core.view.KnownLinks()
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

// Tick executes one heartbeat period synchronously (Core.Tick): Events 2
// and 3, a stable-storage clock mark, and a heartbeat to every neighbor,
// each its own delta frame (package heartbeat). It is exported so tests
// and deterministic harnesses can pace the node without real time.
func (n *Node) Tick() {
	if n.closed.Load() {
		return
	}
	ws := periods.Get()
	defer periods.Put(ws)
	ds := n.decPool.Get()
	defer n.decPool.Put(ds)
	fx := &ds.fx

	n.mu.Lock()
	n.core.Tick(ws, fx)
	n.mu.Unlock()

	n.sendControls(fx)
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
		frame, err := ws.AppendFrame(eb.b, i, fx.Epoch)
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
	ds := n.decPool.Get()
	defer n.decPool.Put(ds)
	fx := &ds.fx
	n.mu.Lock()
	n.core.Broadcast(body, fx)
	n.mu.Unlock()

	if fx.Fresh {
		n.stats.planCacheMisses.Add(1)
	} else {
		n.stats.planCacheHits.Add(1)
	}
	switch {
	case fx.Plan.Err != nil:
		n.stats.fallbackFloods.Add(1)
	case fx.Fresh && n.cfg.Hooks.OnTreeRebuild != nil:
		n.cfg.Hooks.OnTreeRebuild(fx.Seq, fx.Plan.Edges, fx.Planned)
	}
	return fx.Seq, fx.Planned, n.apply(fx, ds)
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
// wire.Scratch, decStore.keep). The core decides the frame under mu, and
// what it decided to send, record or deliver runs after it.
func (n *Node) handle(from topology.NodeID, frameBytes []byte) {
	ds := n.decPool.Get()
	defer n.decPool.Put(ds)
	frame, err := ds.DecodeBorrow(frameBytes)
	if err != nil {
		n.stats.decodeErrors.Add(1)
		return
	}
	if n.closed.Load() {
		return
	}
	fx := &ds.fx
	n.mu.Lock()
	n.core.Receive(from, frame, frameBytes, fx)
	if fx.Merged {
		n.stats.noteVerdicts(n.core.view)
	}
	n.mu.Unlock()
	n.stats.count(fx)
	_ = n.apply(fx, ds)
}

// count books what became of a received frame, or of a membership change
// this node applied: every Outcome but Duplicate and Ignored moves one
// Stats counter.
func (c *counters) count(fx *Effects) {
	c.outcomes[fx.Outcome].Add(1)
	if fx.BadTree {
		c.decodeErrors.Add(1)
	}
	if fx.BadPiggyback {
		c.snapshotMergeErrors.Add(1)
	}
}

// apply carries out what one call into core decided, after mu is
// released: the control frames, the sequence lease a broadcast needs,
// the delivery, and the data frame's copies. A relay frame fails only to
// encode a knowledge snapshot; the message was already delivered
// locally, so the relay is dropped, and the error is a broadcast's only.
func (n *Node) apply(fx *Effects, ds *decStore) error {
	n.sendControls(fx)
	if fx.Seq != 0 && n.cfg.Storage != nil {
		n.ensureSeqLease(fx.Seq)
	}
	if fx.Deliver {
		n.deliver(fx.Delivery, ds)
	}
	if !fx.Out {
		return nil
	}
	// Encode once: every send consumes the same frame bytes (and the same
	// pooled buffer, recycled after the last send). A relay copies or
	// splices the inbound bytes instead of re-serializing the message.
	frame, eb, err := n.encodeDataFrame(fx.Msg, fx.Raw, fx.Snap)
	if err != nil {
		return err
	}
	return n.send(fx.Sends, frame, eb)
}

// sendControls sends the control frames fx lists; only a stopped node
// refuses them, and the repair loop covers a lost one.
func (n *Node) sendControls(fx *Effects) {
	for _, c := range fx.Control {
		_ = n.sendControl(c.To, c.Frame, nil)
	}
}

// deliver hands d to the application, a received body as the node's own
// copy (ds.keep). With a DedupLog every delivery is durably recorded
// first; a received message the log already holds was delivered before
// a crash, and its replay is suppressed (the relay still goes out, so
// the rest of the tree is served). A failed record delivers anyway:
// at-least-once rather than losing the message.
func (n *Node) deliver(d Delivery, ds *decStore) {
	if n.cfg.DedupLog != nil {
		fresh, err := n.cfg.DedupLog.Record(dedup.ID{Origin: d.Origin, Seq: d.Seq})
		switch {
		case err != nil:
			n.stats.logErrors.Add(1)
		case !fresh && d.From != n.cfg.ID:
			n.stats.suppressedReplays.Add(1)
			return
		}
	}
	if d.From != n.cfg.ID {
		d.Body = ds.keep(d.Body)
	}
	n.pushDelivery(d)
}

// AnnounceJoin floods this joiner's own announcement (Core.AnnounceJoin):
// call it once on a node constructed with Config.Epoch set to the
// membership change's epoch.
func (n *Node) AnnounceJoin() error {
	if n.closed.Load() {
		return ErrStopped
	}
	var fx Effects
	n.mu.Lock()
	err := n.core.AnnounceJoin(&fx)
	n.mu.Unlock()
	if err != nil {
		return err
	}
	for _, c := range fx.Control {
		if err := n.sendControl(c.To, c.Frame, nil); err != nil {
			return fmt.Errorf("node: join announcement: %w", err)
		}
	}
	return nil
}

// AnnounceLeave removes a stopped member from the running cluster on its
// behalf, at this node's epoch + 1 and as this view knows the membership
// (Core.LeaveOf); callers holding an authoritative membership ledger (the
// Cluster) use AnnounceLeaveMembership, so changes announced through
// different members cannot collide on one epoch number.
func (n *Node) AnnounceLeave(leaver topology.NodeID) error {
	n.mu.Lock()
	m, err := n.core.LeaveOf(leaver, n.core.epoch+1)
	n.mu.Unlock()
	if err != nil {
		return err
	}
	return n.AnnounceLeaveMembership(m)
}

// AnnounceLeaveMembership applies and floods a fully specified leave
// announcement (Core.AnnounceLeave). m.Departed must include m.Node;
// nothing is applied on error.
func (n *Node) AnnounceLeaveMembership(m *wire.Membership) error {
	if n.closed.Load() {
		return ErrStopped
	}
	var fx Effects
	n.mu.Lock()
	err := n.core.AnnounceLeave(m, &fx)
	n.mu.Unlock()
	if err != nil {
		return err
	}
	n.stats.count(&fx)
	n.sendControls(&fx) // only a stopped node refuses, and the change is applied
	return nil
}

// decStore is the storage of one call into the core: the Effects it
// fills, and for handle the Scratch the frame is decoded into and the
// chunk delivered bodies are carved from. The chunk never rewinds: a full one is replaced, so it
// lives exactly as long as the deliveries carved from it, and one no
// delivery references is collected with the pooled value it rides in.
type decStore struct {
	wire.Scratch
	bodies []byte
	fx     Effects
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
