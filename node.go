package adaptivecast

import (
	"context"
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

// Node is one live protocol process bound to a Transport — the core of
// the public API. Construct it with NewNode over any transport (an
// in-process Fabric endpoint, a TCP transport, or a custom
// implementation), start the heartbeat activity with Start (or pace it
// deterministically with Tick), and consume deliveries either through
// Subscribe handlers or the raw Deliveries channel. Use one consumption
// style per node: the first Subscribe starts a dispatcher that drains the
// channel.
type Node struct {
	inner *node.Node

	mu          sync.Mutex
	subs        []subscription
	nextSub     int
	dispatching bool
	closed      bool

	stopOnce sync.Once
	stop     chan struct{}
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
	if cfg.adaptiveCadence > 0 {
		// Convert the cap to whole heartbeat periods against the final δ
		// (options apply in caller order, so δ is only known now).
		delta := cfg.inner.HeartbeatEvery
		if delta == 0 {
			delta = time.Second // the runtime default
		}
		cfg.inner.AdaptiveCadenceMax = int(cfg.adaptiveCadence / delta)
	}
	n := &Node{
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
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
// so every delivery accepted before Close reaches the subscribers. The
// transport is not closed (the caller owns it). Close is idempotent and
// safe on nodes that were never started.
func (n *Node) Close() error {
	n.stopOnce.Do(func() {
		// Stop the producer first: after this no new deliveries are
		// queued, so the dispatcher's shutdown drain is complete.
		n.inner.Stop()
		n.mu.Lock()
		n.closed = true
		dispatching := n.dispatching
		n.mu.Unlock()
		close(n.stop)
		if dispatching {
			<-n.done
		}
	})
	return nil
}

// Subscribe registers a handler for every subsequent delivery and returns
// its cancel function. Handlers run on one dispatch goroutine in delivery
// order, shared by all subscribers; a handler that lags by more than the
// delivery buffer causes further deliveries to be dropped and counted
// (see WithDeliveryBuffer). Handlers must not block indefinitely.
//
// The first Subscribe switches the node to handler-based consumption: a
// dispatcher starts draining the Deliveries channel. Do not mix Subscribe
// with direct reads of that channel.
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

// dispatchLoop fans deliveries out to the subscribers, in order.
func (n *Node) dispatchLoop() {
	defer close(n.done)
	ch := n.inner.Deliveries()
	for {
		select {
		case d := <-ch:
			n.dispatch(d)
		case <-n.stop:
			// Drain what was already queued so no accepted delivery is
			// silently lost on shutdown.
			for {
				select {
				case d := <-ch:
					n.dispatch(d)
				default:
					return
				}
			}
		}
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

// Deliveries returns the raw delivery channel, for channel-style
// consumers (select loops, pipelines). Do not mix with Subscribe: after
// the first Subscribe the dispatcher owns this channel.
func (n *Node) Deliveries() <-chan Delivery { return n.inner.Deliveries() }

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
