// Package lanes is the prioritized, pipelined send path between the node
// and its transport: a per-peer three-lane scheduler (control > data >
// telemetry) with bounded queues and watermark actions, modeled on the
// RSPP lane-scheduler shape. The node classifies every outbound frame
// into a lane and enqueues it; a per-peer drain goroutine flushes queued
// frames through the transport's batch fast paths, strictly by priority:
//
//   - Control (heartbeats, knowledge deltas, membership announcements —
//     everything the knowledge plane depends on) is never dropped and
//     always flushed first, so protocol-critical frames preempt a
//     saturated datapath instead of starving behind it.
//   - Data (broadcast payloads) is bounded: beyond the queue depth new
//     frames are shed (counted, and tolerable — loss is the protocol's
//     model), and past the high-water mark the aggregation window is
//     bypassed so pending frames coalesce into multi-frame flushes
//     (transport.SendFrames) immediately.
//   - Telemetry is shed first: it is dropped the moment its own queue
//     fills or the data lane crosses its high-water mark. Nothing
//     protocol-critical ever rides this lane.
//
// A configurable time-window aggregator (Config.Window, default 0 = off)
// additionally holds data frames briefly so *different* broadcasts
// headed to the same peer merge into one flush — one syscall on TCP, one
// lock acquisition on the in-process Fabric.
//
// Buffer ownership: Enqueue takes ownership of the frame buffer's
// lifecycle, not its storage — the scheduler never mutates a frame, and
// calls the item's release callback exactly once, after the frame was
// flushed (the transport's Send contract returns the buffer to the
// caller on return), shed, or drained by Close. Callers recycling
// pooled encode buffers hand the pool's put as the release. The queues'
// own backing arrays belong to the peer and alternate between filling
// and flushing; a flushed array is cleared before it is reused, so the
// scheduler holds no frame and no release callback past its flush.
package lanes

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"adaptivecast/internal/topology"
	"adaptivecast/internal/transport"
)

// Lane identifies a priority class. Lower values preempt higher ones.
type Lane uint8

const (
	// Control carries protocol-critical frames: heartbeats, knowledge
	// deltas, membership announcements. Never dropped, always first.
	Control Lane = iota
	// Data carries broadcast payloads: bounded, shed beyond QueueDepth,
	// coalesced into multi-frame flushes under pressure.
	Data
	// Telemetry carries operational frames nothing in the protocol
	// depends on; shed first under pressure.
	Telemetry

	numLanes
)

func (l Lane) String() string {
	switch l {
	case Control:
		return "control"
	case Data:
		return "data"
	case Telemetry:
		return "telemetry"
	}
	return "invalid"
}

// Config tunes the scheduler.
type Config struct {
	// QueueDepth bounds each peer's data and telemetry queues (default
	// 256). The control queue is unbounded by design: control frames are
	// few (O(neighbors) per heartbeat period) and must never be dropped.
	QueueDepth int
	// Window is the data-lane aggregation window: a data frame may wait
	// up to this long for more frames to the same peer before flushing,
	// so different broadcasts coalesce into one multi-frame flush. 0 (the
	// default) disables the wait — frames still coalesce naturally when
	// they queue up faster than the drain flushes. The window never
	// delays control frames, and watermark pressure bypasses it.
	Window time.Duration
}

func (c Config) withDefaults() Config {
	if c.QueueDepth == 0 {
		c.QueueDepth = 256
	}
	return c
}

// Drops counts frames shed per lane. Control is structurally always 0 —
// the field exists so tests can assert exactly that.
type Drops struct {
	Control   int
	Data      int
	Telemetry int
}

// Stats is a snapshot of scheduler counters.
type Stats struct {
	// Drops counts frames shed at enqueue, per lane.
	Drops Drops
	// Flushes counts transport flushes (control frames flush one by one
	// to preserve strict ordering; each counts).
	Flushes int
	// CoalescedFlushes counts data flushes that carried at least two
	// distinct frames — the aggregation (or natural batching) win.
	CoalescedFlushes int
	// CoalescedFrames counts data frames that shared a flush with at
	// least one other frame.
	CoalescedFrames int
	// SendFailures counts flushes the transport rejected structurally
	// (closed transport, unknown peer); per-copy loss is not visible
	// here.
	SendFailures int
}

// item is one queued frame.
type item struct {
	frame   []byte
	copies  int
	release func()
}

// Scheduler is the send path: one instance per node, one drain goroutine
// per peer (created lazily on first send to that peer).
type Scheduler struct {
	tr  transport.Transport
	cfg Config

	mu     sync.Mutex
	peers  map[topology.NodeID]*peer
	closed bool
	wg     sync.WaitGroup

	drops            [numLanes]atomic.Int64
	flushes          atomic.Int64
	coalescedFlushes atomic.Int64
	coalescedFrames  atomic.Int64
	sendFailures     atomic.Int64
	pending          atomic.Int64
}

// New builds a scheduler over tr. Close it before closing the transport
// so queued frames drain onto a live transport.
func New(tr transport.Transport, cfg Config) *Scheduler {
	return &Scheduler{
		tr:    tr,
		cfg:   cfg.withDefaults(),
		peers: make(map[topology.NodeID]*peer),
	}
}

// ErrClosed is returned by Enqueue after Close.
var ErrClosed = errors.New("lanes: scheduler closed")

// Enqueue hands one frame to a peer's lane. copies is the logical copy
// count (the per-edge m[j] burst; <= 0 is a no-op). release, if non-nil,
// is called exactly once when the scheduler is done with the frame —
// flushed, shed, or drained by Close — including on an error return, so
// the caller's buffer accounting never leaks.
//
// A nil error means the frame was accepted into a queue (or, for a shed
// telemetry/data frame, accounted); it does not mean any copy reached
// the transport, mirroring Send's best-effort contract.
func (s *Scheduler) Enqueue(to topology.NodeID, ln Lane, frame []byte, copies int, release func()) error {
	if copies <= 0 {
		if release != nil {
			release()
		}
		return nil
	}
	p, err := s.peerFor(to)
	if err != nil {
		if release != nil {
			release()
		}
		return err
	}
	it := item{frame: frame, copies: copies, release: release}

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		if release != nil {
			release()
		}
		return ErrClosed
	}
	depth := s.cfg.QueueDepth
	shed := false
	switch ln {
	case Control:
		// Unbounded: control is never dropped.
	case Data:
		shed = len(p.q[Data]) >= depth
	case Telemetry:
		// Watermark action "shed telemetry first": telemetry goes the
		// moment its own queue fills *or* the data lane is under
		// pressure — a busy datapath spends its queue budget on data.
		shed = len(p.q[Telemetry]) >= depth || len(p.q[Data]) >= depth/2
	default:
		p.mu.Unlock()
		if release != nil {
			release()
		}
		return errors.New("lanes: invalid lane")
	}
	if shed {
		p.mu.Unlock()
		s.drops[ln].Add(1)
		if release != nil {
			release()
		}
		return nil
	}
	if ln == Data && len(p.q[Data]) == 0 {
		p.dataSince = time.Now()
	}
	p.q[ln] = append(p.q[ln], it)
	s.pending.Add(1)
	p.mu.Unlock()
	p.kick()
	return nil
}

// peerFor returns (creating on first use) the drain state for a peer.
func (s *Scheduler) peerFor(to topology.NodeID) (*peer, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if p, ok := s.peers[to]; ok {
		return p, nil
	}
	p := &peer{
		s:    s,
		to:   to,
		wake: make(chan struct{}, 1),
		stop: make(chan struct{}),
	}
	s.peers[to] = p
	s.wg.Add(1)
	//adaptivelint:goroutine stop=p.stop
	go p.loop()
	return p, nil
}

// Pending reports the frames currently queued across all peers and
// lanes (diagnostic; racy by nature).
func (s *Scheduler) Pending() int { return int(s.pending.Load()) }

// WaitIdle blocks until every queue is empty or the timeout elapses,
// reporting which. It is a test/shutdown helper: the scheduler is
// asynchronous, and assertions about delivered frames need the drain to
// have caught up.
func (s *Scheduler) WaitIdle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for s.pending.Load() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
	return true
}

// Stats returns a snapshot of the counters.
func (s *Scheduler) Stats() Stats {
	return Stats{
		Drops: Drops{
			Control:   int(s.drops[Control].Load()),
			Data:      int(s.drops[Data].Load()),
			Telemetry: int(s.drops[Telemetry].Load()),
		},
		Flushes:          int(s.flushes.Load()),
		CoalescedFlushes: int(s.coalescedFlushes.Load()),
		CoalescedFrames:  int(s.coalescedFrames.Load()),
		SendFailures:     int(s.sendFailures.Load()),
	}
}

// Close drains every queue — control and data frames still flush onto
// the transport; a pending aggregation window is cut short — then stops
// the drain goroutines. Enqueue fails afterwards. Close the scheduler
// before the transport.
func (s *Scheduler) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	peers := make([]*peer, 0, len(s.peers))
	for _, p := range s.peers {
		peers = append(peers, p)
	}
	s.mu.Unlock()
	for _, p := range peers {
		p.mu.Lock()
		p.closed = true
		p.mu.Unlock()
		close(p.stop)
	}
	s.wg.Wait()
	return nil
}

// peer is one destination's queues plus its drain goroutine's state.
// Channel ownership and the drain goroutine's lifecycle are declared
// for adaptivelint (chanowner, goroleak).
//
//adaptivelint:goroutines checked
type peer struct {
	s  *Scheduler
	to topology.NodeID
	//adaptivelint:chan owner=peer.kick close=never
	wake chan struct{}
	//adaptivelint:chan owner=none close=Scheduler.Close
	stop chan struct{}

	mu        sync.Mutex
	closed    bool
	q         [numLanes][]item
	dataSince time.Time // arrival of the oldest queued data frame

	// spare and batch belong to the drain goroutine alone: spare[ln] is
	// the cleared backing array of the lane's last flush, which take
	// swaps back in as the next queue; batch is the multi-frame flush's
	// reused transport argument.
	spare [numLanes][]item
	batch []transport.FrameBatch
}

// kick nudges the drain goroutine; a full wake channel means a nudge is
// already pending.
func (p *peer) kick() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// loop drains the peer's lanes by strict priority until closed and
// empty. Control flushes frame by frame (ordering is part of the
// protocol's serialized-input assumption); data flushes as one
// multi-frame batch, which is where coalescing happens; telemetry
// flushes only when both higher lanes are empty.
func (p *peer) loop() {
	defer p.s.wg.Done()
	for {
		ctl, data, tel, wait, done := p.collect()
		if done {
			return
		}
		if wait > 0 {
			// collect popped any queued control frames even though data is
			// held for the window — flush them before sleeping so the
			// aggregation window never delays the control lane.
			p.flushOneByOne(Control, ctl)
			timer := time.NewTimer(wait)
			select {
			case <-p.wake:
			case <-timer.C:
			case <-p.stop:
			}
			timer.Stop()
			continue
		}
		if ctl == nil && data == nil && tel == nil {
			select {
			case <-p.wake:
			case <-p.stop:
			}
			continue
		}
		p.flushOneByOne(Control, ctl)
		p.flushBatch(data)
		p.flushOneByOne(Telemetry, tel)
	}
}

// collect pops whatever is flushable now, under the queue lock. wait is
// how long the drain should sleep for the data aggregation window to
// fill (0 = nothing to wait for); done reports a closed and fully
// drained peer.
func (p *peer) collect() (ctl, data, tel []item, wait time.Duration, done bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ctl = p.take(Control)
	if n := len(p.q[Data]); n > 0 {
		// The aggregation window holds a young, small data queue open so
		// more broadcasts can join the flush; pressure (high-water mark)
		// or closure cuts it short.
		w := p.s.cfg.Window
		underPressure := n >= p.s.cfg.QueueDepth/2
		if w > 0 && !underPressure && !p.closed {
			if age := time.Since(p.dataSince); age < w {
				wait = w - age
			}
		}
		if wait == 0 {
			data = p.take(Data)
		}
	}
	if ctl == nil && data == nil && wait == 0 {
		tel = p.take(Telemetry)
	}
	// Closure forces wait to 0 above, so on a closed peer every queue
	// was just popped: nothing left means the drain is complete.
	done = p.closed && ctl == nil && data == nil && tel == nil
	return ctl, data, tel, wait, done
}

// take pops a lane's whole queue (lock held by caller), leaving the
// spare array in its place. The pending counter is decremented by the
// flush functions once the frames have actually reached the transport, so
// WaitIdle covers in-flight flushes, not just queue occupancy.
func (p *peer) take(ln Lane) []item {
	items := p.q[ln]
	if len(items) == 0 {
		return nil
	}
	p.q[ln], p.spare[ln] = p.spare[ln], nil
	return items
}

// keepCap bounds the backing arrays a peer keeps between flushes. A
// flush in steady state is a frame or a few; an array that grew to hold
// a backlog (up to QueueDepth under load) goes back to the collector
// instead of staying pinned to every peer for good.
const keepCap = 16

// recycle clears a flushed queue — dropping its frames and release
// callbacks — and keeps its backing array for the lane's next take.
func (p *peer) recycle(ln Lane, items []item) {
	if cap(items) > keepCap {
		return
	}
	clear(items)
	p.spare[ln] = items[:0]
}

// flushOneByOne sends a lane's items individually through the SendN fast
// path, preserving per-frame ordering.
func (p *peer) flushOneByOne(ln Lane, items []item) {
	if len(items) == 0 {
		return
	}
	for _, it := range items {
		p.sendOne(it)
		if it.release != nil {
			it.release()
		}
		p.s.pending.Add(-1)
	}
	p.recycle(ln, items)
}

// sendOne is one single-frame transport flush.
func (p *peer) sendOne(it item) {
	if _, err := transport.SendN(p.s.tr, p.to, it.frame, it.copies); err != nil {
		p.s.sendFailures.Add(1)
	}
	p.s.flushes.Add(1)
}

// flushBatch sends the data lane's items as one flush: coalesced into a
// multi-frame transport call when there are several, the plain SendN of
// its only frame otherwise.
func (p *peer) flushBatch(items []item) {
	if len(items) == 0 {
		return
	}
	if len(items) == 1 {
		p.sendOne(items[0])
	} else {
		for _, it := range items {
			p.batch = append(p.batch, transport.FrameBatch{Frame: it.frame, Copies: it.copies})
		}
		if _, err := transport.SendFrames(p.s.tr, p.to, p.batch); err != nil {
			p.s.sendFailures.Add(1)
		}
		clear(p.batch)
		p.batch = p.batch[:0]
		if cap(p.batch) > keepCap {
			p.batch = nil
		}
		p.s.flushes.Add(1)
		p.s.coalescedFlushes.Add(1)
		p.s.coalescedFrames.Add(int64(len(items)))
	}
	for _, it := range items {
		if it.release != nil {
			it.release()
		}
	}
	p.s.pending.Add(-int64(len(items)))
	p.recycle(Data, items)
}
