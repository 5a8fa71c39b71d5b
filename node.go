package adaptivecast

import (
	"context"
	"errors"
	"slices"
	"sync"
	"time"

	"adaptivecast/internal/node"
)

// Receipt acknowledges an initiated broadcast.
type Receipt struct {
	// Origin is the broadcasting node.
	Origin NodeID
	// Seq is the originator-local sequence number of the broadcast.
	Seq uint64
	// Planned is the planned data-message count Σ m[j] for the broadcast's
	// Maximum Reliability Tree, or the flood fan-out while the view cannot
	// produce a spanning tree yet.
	Planned int
}

// ErrSubscribed is returned by Next on a node that has had a Subscribe:
// its dispatcher takes every delivery from then on.
var ErrSubscribed = errors.New("adaptivecast: deliveries go to the subscribers")

// ErrClosed is returned by Next once the node is closed and every
// delivery it accepted before Close has been taken, and by Broadcast on a
// closed node.
var ErrClosed = node.ErrStopped

// Node is one live protocol process bound to a Transport — the core of
// the public API. Construct it with NewNode over any transport (an
// in-process Fabric endpoint, a TCP transport, or a custom
// implementation), start the heartbeat activity with Start (or pace it
// deterministically with Tick), and take deliveries with Next, or have
// Subscribe handlers called with them.
type Node struct {
	inner *node.Node

	mu          sync.Mutex
	subs        []subscription
	nextSub     int
	dispatching bool
	closed      bool

	stopOnce sync.Once
	done     chan struct{}
}

// subscription is one registered handler; the slice keeps registration
// order and stays proportional to the active subscribers. It is
// copy-on-write: Subscribe and cancel install a fresh slice under mu and
// never modify one in place, so dispatch iterates the slice it loaded
// without holding the lock or copying it.
type subscription struct {
	id int
	fn func(Delivery)
}

// NewNode builds a node over the given transport. The node's identity is
// the transport's: tr.Local() names this process among numProcs, and
// neighbors lists its directly connected peers. Capabilities beyond the
// defaults — reliability target, heartbeat period, stable storage,
// exactly-once logging, piggybacking, instrumentation — are enabled with
// functional options.
//
// The node is built stopped: call Start for real-time heartbeats or Tick
// to pace it deterministically, and Close when done. If stable storage
// holds a previous clock mark, the downtime since that mark is booked as
// missed ticks before the node starts.
func NewNode(tr Transport, numProcs int, neighbors []NodeID, opts ...Option) (*Node, error) {
	cfg := nodeConfig{inner: node.Config{
		NumProcs:  numProcs,
		Neighbors: neighbors,
	}}
	if tr != nil {
		cfg.inner.ID = tr.Local()
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	n := &Node{done: make(chan struct{})}
	cfg.inner.Hooks = n.hooks(cfg.obs)
	inner, err := node.New(cfg.inner, tr)
	if err != nil {
		return nil, err
	}
	n.inner = inner
	return n, nil
}

// hooks bridges the public Observer onto the runtime's instrumentation
// points.
func (n *Node) hooks(obs Observer) node.Hooks {
	return node.Hooks{
		OnDeliver: obs.OnDeliver,
		OnDrop:    obs.OnDrop,
		OnTreeRebuild: func(seq uint64, edges, planned int) {
			if obs.OnTreeRebuild != nil {
				obs.OnTreeRebuild(TreeRebuild{Seq: seq, Edges: edges, Planned: planned})
			}
		},
	}
}

// ID returns the node's process identity (its transport's Local).
func (n *Node) ID() NodeID { return n.inner.ID() }

// Start launches the heartbeat activity on real timers. It is idempotent;
// deterministic drivers use Tick instead.
func (n *Node) Start() { n.inner.Start() }

// Tick advances the node one heartbeat period synchronously — the
// deterministic alternative to Start for tests and paced demos.
func (n *Node) Tick() { n.inner.Tick() }

// Close stops the heartbeat activity and the subscription dispatcher and
// waits for both to exit. The runtime is stopped before the dispatcher,
// so every delivery accepted before Close reaches the subscribers (or
// stays for Next, until ErrClosed). The transport is not closed (the
// caller owns it). Close is idempotent and safe on nodes that were never
// started.
func (n *Node) Close() error {
	n.stopOnce.Do(func() {
		// Stop the producer first: after this no delivery is queued, and
		// the dispatcher exits once it has handed out the last one.
		n.inner.Stop()
		n.mu.Lock()
		n.closed = true
		dispatching := n.dispatching
		n.mu.Unlock()
		if dispatching {
			<-n.done
		}
	})
	return nil
}

// Next returns the oldest delivery not yet taken, blocking until one
// arrives, ctx is done (ctx's error), or the node is closed and every
// delivery accepted before Close has been taken (ErrClosed). Deliveries
// come in the order the node accepted them; a queued one is returned even
// when ctx is already done, so a done ctx takes what is queued without
// waiting. Any number of goroutines may call Next; each delivery goes to
// one of them. Once Subscribe has been called, Next returns
// ErrSubscribed: the dispatcher takes everything.
//
// Deliveries wait in an on-demand queue bounded in bytes (64 MiB of
// bodies and entries), so a consumer that pauses loses nothing short of
// that; past it, deliveries are dropped and counted in
// NodeStats.DroppedDeliveries. A delivered Body is read-only; copy
// before modifying (see Delivery).
func (n *Node) Next(ctx context.Context) (Delivery, error) {
	n.mu.Lock()
	subscribed := n.dispatching
	n.mu.Unlock()
	if subscribed {
		return Delivery{}, ErrSubscribed
	}
	return n.inner.Next(ctx)
}

// Subscribe registers a handler for every subsequent delivery and returns
// its cancel function. Handlers run on one dispatch goroutine in delivery
// order, shared by all subscribers; the dispatcher takes each delivery
// with Next, so what arrives while a handler runs waits in the same
// byte-bounded queue (see Next). Handlers must not block indefinitely: a
// blocked handler holds up every later delivery and Close. A delivered
// Body is read-only; copy before modifying (see Delivery).
//
// The first Subscribe starts the dispatcher; from then on Next returns
// ErrSubscribed.
func (n *Node) Subscribe(fn func(Delivery)) (cancel func()) {
	n.mu.Lock()
	id := n.nextSub
	n.nextSub++
	n.subs = append(slices.Clip(n.subs), subscription{id: id, fn: fn})
	// The dispatcher starts on the first subscription — and never after
	// Close, so no handler runs once Close has returned.
	start := !n.dispatching && !n.closed
	if start {
		n.dispatching = true
	}
	n.mu.Unlock()
	if start {
		go n.dispatchLoop()
	}
	return func() {
		n.mu.Lock()
		for i, s := range n.subs {
			if s.id == id {
				n.subs = append(n.subs[:i:i], n.subs[i+1:]...)
				break
			}
		}
		n.mu.Unlock()
	}
}

// dispatchLoop fans deliveries out to the subscribers, in order, until
// the node is closed and the queue is drained.
func (n *Node) dispatchLoop() {
	defer close(n.done)
	for {
		d, err := n.inner.Next(context.Background())
		if err != nil {
			return
		}
		n.dispatch(d)
	}
}

// dispatch hands one delivery to every current subscriber, in
// registration order.
func (n *Node) dispatch(d Delivery) {
	n.mu.Lock()
	subs := n.subs
	n.mu.Unlock()
	for _, s := range subs {
		s.fn(d)
	}
}

// Broadcast reliably broadcasts body (Algorithm 1): the message rides the
// node's current Maximum Reliability Tree with per-edge retransmission
// counts meeting the reliability target K, or is flooded to the neighbors
// while the view cannot produce a spanning tree yet.
//
// Sends are asynchronous hand-offs to the node's lane scheduler, so a
// transport that refuses them (closed, unknown peer) does not fail the
// call: it is counted in NodeStats.SendFailures once the lanes flush
// (see WaitSendIdle). A non-nil error can still accompany a valid
// Receipt — once the broadcast is initiated (sequence number consumed,
// local delivery queued), a node whose send path is already closed
// reports the receipt of the half-sent broadcast so callers can dedup
// instead of retrying blind. Receipt.Seq == 0 means nothing was
// initiated.
func (n *Node) Broadcast(body []byte) (Receipt, error) {
	seq, planned, err := n.inner.Broadcast(body)
	if seq == 0 {
		return Receipt{}, err
	}
	return Receipt{Origin: n.ID(), Seq: seq, Planned: planned}, err
}

// BroadcastCtx is Broadcast bounded by a context: a context already
// cancelled when the call is made fails fast without initiating
// anything, and a cancellation while the broadcast is being planned
// returns ctx's error immediately. The broadcast itself, once initiated,
// is not recalled — the protocol has no un-send — so a late cancellation
// abandons only the wait for the receipt, and the message may still be
// delivered cluster-wide; callers that retry on ctx.Err must tolerate
// the duplicate.
func (n *Node) BroadcastCtx(ctx context.Context, body []byte) (Receipt, error) {
	if err := ctx.Err(); err != nil {
		return Receipt{}, err
	}
	type result struct {
		r   Receipt
		err error
	}
	ch := make(chan result, 1)
	go func() {
		r, err := n.Broadcast(body)
		ch <- result{r, err}
	}()
	select {
	case res := <-ch:
		return res.r, res.err
	case <-ctx.Done():
		return Receipt{}, ctx.Err()
	}
}

// Stats returns a snapshot of the node's protocol counters.
func (n *Node) Stats() NodeStats { return n.inner.Stats() }

// WaitSendIdle blocks until the lane scheduler (see WithLaneQueueDepth)
// has flushed every queued outbound frame, or the timeout elapses; it
// reports whether idle was reached. Benchmarks and shutdown sequences use
// it to distinguish "handed to the transport" from "queued"; after it a
// refused flush is counted in NodeStats.SendFailures.
func (n *Node) WaitSendIdle(timeout time.Duration) bool { return n.inner.WaitSendIdle(timeout) }

// Epoch returns the membership epoch the node currently operates in: 0
// in a static cluster, and the epoch of the last applied membership
// change in a dynamic one. Frames from older epochs are fenced off and
// counted in NodeStats.StaleEpochFrames.
func (n *Node) Epoch() uint64 { return n.inner.Epoch() }

// Neighbors returns the node's current neighbor roster (a shared
// snapshot; do not modify). The roster changes as membership
// announcements add or remove adjacent processes.
func (n *Node) Neighbors() []NodeID { return n.inner.Neighbors() }

// AnnounceJoin floods this node's join announcement to its neighbors.
// Call it once on a freshly constructed joiner — a node built with
// WithEpoch (and WithDeparted when the cluster has tombstones) whose
// neighbor list names its links into the running cluster. Receiving
// members adopt the new epoch, learn their new link, and their next
// heartbeats ship the full knowledge snapshots that fold the joiner in;
// Cluster.AddNode wraps this for in-process fabrics.
func (n *Node) AnnounceJoin() error { return n.inner.AnnounceJoin() }

// AnnounceLeave removes a (stopped) member from the running cluster on
// its behalf: this node tombstones the leaver, bumps the membership
// epoch, and floods the announcement. Call it on any surviving member;
// Cluster.RemoveNode wraps this for in-process fabrics.
func (n *Node) AnnounceLeave(leaver NodeID) error { return n.inner.AnnounceLeave(leaver) }

// CrashEstimate returns the node's current estimate of process i's
// per-period crash probability and the estimate's distortion.
func (n *Node) CrashEstimate(i NodeID) (mean float64, distortion int) {
	return n.inner.CrashEstimate(i)
}

// LossEstimate returns the node's current estimate of a link's loss
// probability; ok is false while the link is still unknown to the node.
func (n *Node) LossEstimate(l Link) (mean float64, distortion int, ok bool) {
	return n.inner.LossEstimate(l)
}

// KnownLinks reports the links the node has discovered so far.
func (n *Node) KnownLinks() []Link { return n.inner.KnownLinks() }
