// Package lanes is the prioritized, pipelined send path between the node
// and its transport: a per-peer two-lane scheduler (control > data) with
// a bounded data queue, modeled on the RSPP lane-scheduler shape. The
// node classifies every outbound frame into a lane and enqueues it; a
// per-peer drain goroutine flushes queued frames through the transport's
// batch fast paths, strictly by priority:
//
//   - Control (heartbeats, knowledge deltas, membership announcements —
//     everything the knowledge plane depends on) is never dropped and
//     always flushed first, so protocol-critical frames preempt a
//     saturated datapath instead of starving behind it.
//   - Data (broadcast payloads) is bounded: beyond the queue depth new
//     frames are shed (counted, and tolerable — loss is the protocol's
//     model). Whatever queued while the drain was busy leaves as one
//     multi-frame flush (transport.SendFrames), so *different* broadcasts
//     headed to the same peer coalesce whenever they arrive faster than
//     the drain flushes — one syscall on TCP, one lock acquisition on the
//     in-process Fabric.
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

	numLanes
)

func (l Lane) String() string {
	switch l {
	case Control:
		return "control"
	case Data:
		return "data"
	}
	return "invalid"
}

// Config tunes the scheduler.
type Config struct {
	// QueueDepth bounds each peer's data queue (default 256). The control
	// queue is unbounded by design: control frames are few (O(neighbors)
	// per heartbeat period) and must never be dropped.
	QueueDepth int
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
	Control int
	Data    int
}

// Stats is a snapshot of scheduler counters.
type Stats struct {
	// Drops counts frames shed at enqueue, per lane.
	Drops Drops
	// Flushes counts transport flushes (control frames flush one by one
	// to preserve strict ordering; each counts).
	Flushes int
	// CoalescedFlushes counts data flushes that carried at least two
	// distinct frames — the batching win.
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
// data frame, accounted); it does not mean any copy reached the
// transport, mirroring Send's best-effort contract.
func (s *Scheduler) Enqueue(to topology.NodeID, ln Lane, frame []byte, copies int, release func()) error {
	if copies <= 0 {
		if release != nil {
			release()
		}
		return nil
	}
	if ln >= numLanes {
		if release != nil {
			release()
		}
		return errors.New("lanes: invalid lane")
	}
	p, err := s.peerFor(to)
	if err != nil {
		if release != nil {
			release()
		}
		return err
	}

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		if release != nil {
			release()
		}
		return ErrClosed
	}
	// Control is unbounded: it is never dropped.
	if ln == Data && len(p.q[Data]) >= s.cfg.QueueDepth {
		p.mu.Unlock()
		s.drops[Data].Add(1)
		if release != nil {
			release()
		}
		return nil
	}
	p.q[ln] = append(p.q[ln], item{frame: frame, copies: copies, release: release})
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
			Control: int(s.drops[Control].Load()),
			Data:    int(s.drops[Data].Load()),
		},
		Flushes:          int(s.flushes.Load()),
		CoalescedFlushes: int(s.coalescedFlushes.Load()),
		CoalescedFrames:  int(s.coalescedFrames.Load()),
		SendFailures:     int(s.sendFailures.Load()),
	}
}

// Close drains every queue — control and data frames still flush onto
// the transport — then stops the drain goroutines. Enqueue fails
// afterwards. Close the scheduler before the transport.
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
// kick is the only sender on wake, and Scheduler.Close the only closer
// of stop, after which the drain flushes what is queued and exits.
type peer struct {
	s    *Scheduler
	to   topology.NodeID
	wake chan struct{}
	stop chan struct{}

	mu     sync.Mutex
	closed bool
	q      [numLanes][]item

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
// protocol's serialized-input assumption) ahead of data, which flushes as
// one multi-frame batch — where coalescing happens.
func (p *peer) loop() {
	defer p.s.wg.Done()
	for {
		ctl, data, done := p.collect()
		if done {
			return
		}
		if ctl == nil && data == nil {
			select {
			case <-p.wake:
			case <-p.stop:
			}
			continue
		}
		p.flushControl(ctl)
		p.flushData(data)
	}
}

// collect pops both queues under the queue lock; done reports a closed
// and fully drained peer.
func (p *peer) collect() (ctl, data []item, done bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ctl, data = p.take(Control), p.take(Data)
	return ctl, data, p.closed && ctl == nil && data == nil
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

// flushControl sends the control lane's items individually through the
// SendN fast path, preserving per-frame ordering.
func (p *peer) flushControl(items []item) {
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
	p.recycle(Control, items)
}

// sendOne is one single-frame transport flush.
func (p *peer) sendOne(it item) {
	if _, err := transport.SendN(p.s.tr, p.to, it.frame, it.copies); err != nil {
		p.s.sendFailures.Add(1)
	}
	p.s.flushes.Add(1)
}

// flushData sends the data lane's items as one flush: coalesced into a
// multi-frame transport call when there are several, the plain SendN of
// its only frame otherwise.
func (p *peer) flushData(items []item) {
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
