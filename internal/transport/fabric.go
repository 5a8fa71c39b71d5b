package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"adaptivecast/internal/pool"
	"adaptivecast/internal/queue"
	"adaptivecast/internal/topology"
)

// FabricOptions tunes the in-process transport.
type FabricOptions struct {
	// Seed drives the loss sampling; 0 uses 1 (keep runs reproducible).
	Seed int64
	// Latency delays every delivery (0 = immediate).
	Latency time.Duration
	// QueueSize bounds how many routed entries each endpoint's inbox
	// holds; 0 or less uses the default, 1024. It is a bound, not a
	// preallocation: the inbox grows on demand and an idle endpoint holds
	// a few slots. When an inbox is full the frame is dropped — the model
	// tolerates loss by construction, and the drop is counted in Stats.
	QueueSize int
	// SendCost charges the sender this many bytes of memory copy per
	// transport call (Send/SendN/SendFrames each count as one flush),
	// into a per-link buffer held under a per-link lock — the shape of
	// the kernel socket-buffer copy a write(2) pays on a real NIC, where
	// flushes to different peers overlap but flushes on the same
	// connection serialize. 0 (the default) keeps sends free. Saturation
	// benchmarks set this; without it the fabric has no backpressure for
	// a pipelined sender to win against.
	SendCost int
}

func (o FabricOptions) withDefaults() FabricOptions {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.QueueSize <= 0 {
		o.QueueSize = 1024
	}
	return o
}

// FabricStats counts fabric-level events.
type FabricStats struct {
	Sent       int
	Lost       int // dropped by injected probabilistic loss
	FaultDrops int // dropped by a hard fault: a Down link, a partition or a closed endpoint
	Overflows  int // dropped because a receiving inbox was full
}

// LinkModel describes one *direction* of a link. The zero value is a
// perfect wire: no loss, fabric-default latency, no jitter, up.
type LinkModel struct {
	// Loss is the per-copy drop probability in [0,1].
	Loss float64
	// Latency overrides FabricOptions.Latency for this direction when > 0.
	Latency time.Duration
	// Jitter adds a uniform extra delay in [0, Jitter) per flush (frames
	// that share a wire flush share an arrival, so they share the draw).
	Jitter time.Duration
	// Down drops every copy while set — the flapping-link control. Unlike
	// Loss it is a hard outage, counted in FaultDrops rather than Lost.
	Down bool
}

// dlink keys the per-direction model map.
type dlink struct{ from, to topology.NodeID }

// Fabric is an in-process "network": it owns one endpoint per node and
// applies an injectable per-direction LinkModel (loss, latency, jitter,
// outages) plus runtime partition control, giving the live node stack
// the same probabilistic environment the simulator models — and worse.
type Fabric struct {
	mu        sync.Mutex
	opts      FabricOptions
	rng       *rand.Rand
	endpoints map[topology.NodeID]*fabricEndpoint
	models    map[dlink]LinkModel
	// partition maps nodes to a group index; nil means no partition.
	// Unlisted nodes form their own implicit group (-1).
	partition map[topology.NodeID]int
	stats     FabricStats
	closed    bool
	// costSrc is the SendCost-sized source block every simulated kernel
	// copy reads from (nil when sends are free).
	costSrc []byte
	// lent recycles the buffers routed frames are copied into: a buffer
	// is lent to the receiving handler for its calls and comes back when
	// the last of them returns, or when the frame is dropped unhandled.
	lent pool.Pool[lentBuf]
}

// lentBuf is one inbound frame's buffer, lent to the handler for its
// calls (a Fabric's routed frame, a frame TCP read); the pointer wrapper
// keeps the pool from boxing a slice header on every Put.
type lentBuf struct{ b []byte }

// keepLent is the Reset of a pool of lent buffers: it empties lb and
// keeps it unless a huge frame grew it past keepBuf.
func keepLent(lb *lentBuf) bool {
	lb.b = lb.b[:0]
	return cap(lb.b) <= keepBuf
}

// NewFabric returns an empty fabric.
func NewFabric(opts FabricOptions) *Fabric {
	opts = opts.withDefaults()
	f := &Fabric{
		opts:      opts,
		rng:       rand.New(rand.NewSource(opts.Seed)),
		endpoints: make(map[topology.NodeID]*fabricEndpoint),
		models:    make(map[dlink]LinkModel),
	}
	if opts.SendCost > 0 {
		f.costSrc = make([]byte, opts.SendCost)
	}
	f.lent.Reset = keepLent
	return f
}

// lend copies frame into a pooled buffer: the sender may reuse its own
// once Send returns.
func (f *Fabric) lend(frame []byte) *lentBuf {
	lb := f.lent.Get()
	lb.b = append(lb.b[:0], frame...)
	return lb
}

// SetLoss injects a loss probability for the (undirected) link a—b. It
// writes both directions of the LinkModel, so legacy symmetric-loss
// callers and asymmetric SetLinkModel callers share one datapath; any
// latency/jitter/outage already set on either direction is preserved.
func (f *Fabric) SetLoss(a, b topology.NodeID, p float64) error {
	if p < 0 || p > 1 {
		return fmt.Errorf("transport: loss %v outside [0,1]", p)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, d := range [2]dlink{{a, b}, {b, a}} {
		m := f.models[d]
		m.Loss = p
		f.models[d] = m
	}
	return nil
}

// SetLinkModel installs the model for the *directed* link from→to,
// replacing that direction entirely (the reverse direction is untouched).
func (f *Fabric) SetLinkModel(from, to topology.NodeID, m LinkModel) error {
	if m.Loss < 0 || m.Loss > 1 {
		return fmt.Errorf("transport: loss %v outside [0,1]", m.Loss)
	}
	if m.Latency < 0 || m.Jitter < 0 {
		return fmt.Errorf("transport: negative latency/jitter")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.models[dlink{from, to}] = m
	return nil
}

// LinkModelFor returns the current model for the directed link from→to
// (the zero model if none was set).
func (f *Fabric) LinkModelFor(from, to topology.NodeID) LinkModel {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.models[dlink{from, to}]
}

// SetLinkDown marks both directions of a—b down (true) or up (false)
// without disturbing the rest of their models — the flapping-link switch.
func (f *Fabric) SetLinkDown(a, b topology.NodeID, down bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, d := range [2]dlink{{a, b}, {b, a}} {
		m := f.models[d]
		m.Down = down
		f.models[d] = m
	}
}

// SetPartition splits the fabric into the given groups: traffic between
// nodes in different groups (or between a listed node and an unlisted
// one) is dropped and counted in FaultDrops. Unlisted nodes form their
// own implicit group, so SetPartition([]NodeID{3}) isolates node 3.
// Calling with no groups heals the partition.
func (f *Fabric) SetPartition(groups ...[]topology.NodeID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(groups) == 0 {
		f.partition = nil
		return
	}
	f.partition = make(map[topology.NodeID]int)
	for g, members := range groups {
		for _, id := range members {
			f.partition[id] = g
		}
	}
}

// severed reports whether the current partition blocks from→to.
// Callers hold f.mu.
func (f *Fabric) severed(from, to topology.NodeID) bool {
	if f.partition == nil {
		return false
	}
	gf, okf := f.partition[from]
	gt, okt := f.partition[to]
	if !okf {
		gf = -1
	}
	if !okt {
		gt = -1
	}
	return gf != gt
}

// delayFor computes the delivery delay for one flush on from→to: the
// model's latency override (else the fabric default) plus one uniform
// jitter draw. Callers hold f.mu (the rng is not safe for concurrent use).
func (f *Fabric) delayFor(m LinkModel) time.Duration {
	delay := f.opts.Latency
	if m.Latency > 0 {
		delay = m.Latency
	}
	if m.Jitter > 0 {
		delay += time.Duration(f.rng.Int63n(int64(m.Jitter)))
	}
	return delay
}

// Stats returns a snapshot of the fabric counters.
func (f *Fabric) Stats() FabricStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// Endpoint returns (creating on first use) the transport endpoint for id.
func (f *Fabric) Endpoint(id topology.NodeID) Transport {
	f.mu.Lock()
	defer f.mu.Unlock()
	if ep, ok := f.endpoints[id]; ok {
		return ep
	}
	if f.closed {
		// Nothing would ever stop a receive loop started now: hand out an
		// endpoint that is closed from birth and runs no goroutine.
		ep := &fabricEndpoint{fabric: f, id: id, stop: closedSignal}
		ep.closeOnce.Do(func() {})
		return ep
	}
	ep := &fabricEndpoint{
		fabric: f,
		id:     id,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	ep.inbox.init(f.opts.QueueSize)
	if f.opts.SendCost > 0 {
		ep.links = make(map[topology.NodeID]*linkBuf)
	}
	go ep.receiveLoop()
	f.endpoints[id] = ep
	return ep
}

// Close shuts down every endpoint.
func (f *Fabric) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	eps := make([]*fabricEndpoint, 0, len(f.endpoints))
	for _, ep := range f.endpoints {
		eps = append(eps, ep)
	}
	f.mu.Unlock()
	for _, ep := range eps {
		if err := ep.Close(); err != nil {
			return err
		}
	}
	return nil
}

// route samples loss per copy and hands the survivors to the destination
// inbox as one entry: n logical copies cost one buffer copy and one
// inbox put, but link loss — the model the protocol's redundancy
// math is built on — stays an independent Bernoulli trial per copy.
// Inbox overflow (local backpressure, not part of the paper's loss model)
// drops the surviving batch as a unit; that correlation is not new — an
// inbox with no room for copy 1 of a burst had no room for copies 2..n
// sent microseconds later either.
func (f *Fabric) route(from, to topology.NodeID, frame []byte, n int) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return errors.New("transport: fabric closed")
	}
	dst, ok := f.endpoints[to]
	if !ok {
		f.mu.Unlock()
		return fmt.Errorf("transport: unknown peer %d", to)
	}
	f.stats.Sent += n
	m := f.models[dlink{from, to}]
	if m.Down || f.severed(from, to) {
		f.stats.FaultDrops += n
		f.mu.Unlock()
		return nil
	}
	survivors := n
	if m.Loss > 0 {
		survivors = 0
		for i := 0; i < n; i++ {
			if f.rng.Float64() >= m.Loss {
				survivors++
			}
		}
		f.stats.Lost += n - survivors
	}
	delay := f.delayFor(m)
	f.mu.Unlock()
	if survivors == 0 {
		return nil
	}

	in := inboundFrame{from: from, buf: f.lend(frame), copies: survivors}
	if delay > 0 {
		time.AfterFunc(delay, func() { dst.enqueue(in) })
		return nil
	}
	dst.enqueue(in)
	return nil
}

// routeBatch is route over several distinct frames: one lock acquisition
// samples loss for the whole flush (still one independent Bernoulli
// trial per copy), then each surviving frame is copied and enqueued.
// Under a saturated sender the fabric's global mutex is the contended
// resource, so amortizing it across a coalesced flush is what the lane
// scheduler's throughput win on this transport comes from.
func (f *Fabric) routeBatch(from, to topology.NodeID, batch []FrameBatch) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return errors.New("transport: fabric closed")
	}
	dst, ok := f.endpoints[to]
	if !ok {
		f.mu.Unlock()
		return fmt.Errorf("transport: unknown peer %d", to)
	}
	m := f.models[dlink{from, to}]
	if m.Down || f.severed(from, to) {
		for _, e := range batch {
			if e.Copies > 0 {
				f.stats.Sent += e.Copies
				f.stats.FaultDrops += e.Copies
			}
		}
		f.mu.Unlock()
		return nil
	}
	// A flush is a handful of frames; only a larger one sizes its own
	// survivor counts.
	var few [8]int
	survivors := few[:0]
	if len(batch) > len(few) {
		survivors = make([]int, 0, len(batch))
	}
	for _, e := range batch {
		n := max(e.Copies, 0)
		f.stats.Sent += n
		if m.Loss > 0 {
			sent := n
			n = 0
			for c := 0; c < sent; c++ {
				if f.rng.Float64() >= m.Loss {
					n++
				}
			}
			f.stats.Lost += sent - n
		}
		survivors = append(survivors, n)
	}
	delay := f.delayFor(m)
	f.mu.Unlock()

	// One delayed delivery for the whole flush: the frames shared a wire,
	// so they share an arrival (and one timer — per-frame timers would
	// melt the runtime under a saturating sender).
	var held []inboundFrame
	for i, e := range batch {
		if survivors[i] == 0 {
			continue
		}
		in := inboundFrame{from: from, buf: f.lend(e.Frame), copies: survivors[i]}
		if delay > 0 {
			held = append(held, in)
		} else {
			dst.enqueue(in)
		}
	}
	// flush is held's final value: a closure over held itself, which the
	// loop reassigns, would move it to the heap on every call.
	if flush := held; len(flush) > 0 {
		time.AfterFunc(delay, func() {
			for _, in := range flush {
				dst.enqueue(in)
			}
		})
	}
	return nil
}

// closedSignal is the stop channel of an endpoint handed out by a closed
// fabric: closed from the start, so Send fails at once.
var closedSignal = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// linkBuf is one outbound connection's simulated write buffer: the
// per-link lock serializes flushes on the same link while flushes to
// different peers proceed in parallel, like per-connection socket
// buffers.
type linkBuf struct {
	mu      sync.Mutex
	scratch []byte
}

// fabricEndpoint is one node's attachment to the fabric.
type fabricEndpoint struct {
	fabric *Fabric
	id     topology.NodeID

	handlerMu sync.RWMutex
	handler   Handler

	// links holds per-destination write buffers; nil unless SendCost > 0.
	linksMu sync.Mutex
	links   map[topology.NodeID]*linkBuf

	inbox     inbox
	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

var _ Transport = (*fabricEndpoint)(nil)
var _ BatchSender = (*fabricEndpoint)(nil)
var _ MultiFrameSender = (*fabricEndpoint)(nil)

// Local implements Transport.
func (ep *fabricEndpoint) Local() topology.NodeID { return ep.id }

// paySendCost performs the simulated per-flush kernel copy for the link
// to `to`. One call per transport call, regardless of how many frames
// or copies the flush carries — that amortization is exactly what a
// coalescing sender buys.
func (ep *fabricEndpoint) paySendCost(to topology.NodeID) {
	cost := ep.fabric.opts.SendCost
	if cost <= 0 {
		return
	}
	ep.linksMu.Lock()
	lb := ep.links[to]
	if lb == nil {
		lb = &linkBuf{scratch: make([]byte, cost)}
		ep.links[to] = lb
	}
	ep.linksMu.Unlock()
	lb.mu.Lock()
	copy(lb.scratch, ep.fabric.costSrc)
	lb.mu.Unlock()
}

// SetHandler implements Transport.
func (ep *fabricEndpoint) SetHandler(h Handler) {
	ep.handlerMu.Lock()
	defer ep.handlerMu.Unlock()
	ep.handler = h
}

// Send implements Transport.
func (ep *fabricEndpoint) Send(to topology.NodeID, frame []byte) error {
	return ep.SendN(to, frame, 1)
}

// SendN implements BatchSender: n logical copies from one enqueue, with
// loss still sampled per copy.
func (ep *fabricEndpoint) SendN(to topology.NodeID, frame []byte, n int) error {
	if n <= 0 {
		return nil
	}
	select {
	case <-ep.stop:
		return errors.New("transport: endpoint closed")
	default:
	}
	ep.paySendCost(to)
	return ep.fabric.route(ep.id, to, frame, n)
}

// SendFrames implements MultiFrameSender: the whole flush samples loss
// under one fabric lock acquisition instead of one per frame.
func (ep *fabricEndpoint) SendFrames(to topology.NodeID, batch []FrameBatch) error {
	if len(batch) == 0 {
		return nil
	}
	select {
	case <-ep.stop:
		return errors.New("transport: endpoint closed")
	default:
	}
	ep.paySendCost(to)
	return ep.fabric.routeBatch(ep.id, to, batch)
}

// enqueue hands one routed frame to the endpoint's receive loop. A full
// inbox counts the frame's copies as overflow; a closed endpoint counts
// them as fault drops, since route already counted them as sent. A frame
// refused either way goes back to the lent pool unhandled.
func (ep *fabricEndpoint) enqueue(in inboundFrame) {
	switch ep.inbox.Put(in) {
	case queue.Full:
		ep.fabric.lent.Put(in.buf)
		ep.fabric.count(&ep.fabric.stats.Overflows, in.copies)
	case queue.Closed:
		ep.fabric.lent.Put(in.buf)
		ep.fabric.count(&ep.fabric.stats.FaultDrops, in.copies)
	}
}

// count adds n to one of the fabric's counters.
func (f *Fabric) count(c *int, n int) {
	f.mu.Lock()
	*c += n
	f.mu.Unlock()
}

// Close implements Transport. Copies still waiting in the inbox when the
// receive loop stops will never be handled, so they count as fault drops.
func (ep *fabricEndpoint) Close() error {
	ep.closeOnce.Do(func() {
		close(ep.stop)
		<-ep.done
		if dropped := ep.inbox.close(ep.fabric.lent.Put); dropped > 0 {
			ep.fabric.count(&ep.fabric.stats.FaultDrops, dropped)
		}
	})
	return nil
}

// receiveLoop serializes handler invocations for this endpoint: woken by
// a put on an empty inbox, it drains the inbox in FIFO order, and takes
// each frame's buffer back once its last handler call has returned.
func (ep *fabricEndpoint) receiveLoop() {
	defer close(ep.done)
	for {
		select {
		case <-ep.inbox.Wake():
		case <-ep.stop:
			return
		}
		for in, r := ep.inbox.Pop(); r == queue.Popped; in, r = ep.inbox.Pop() {
			ep.handlerMu.RLock()
			h := ep.handler
			ep.handlerMu.RUnlock()
			in.deliver(h)
			ep.fabric.lent.Put(in.buf)
			select {
			case <-ep.stop:
				return
			default:
			}
		}
	}
}
