package node

// The send path: every outbound frame leaves the node through the
// helpers in this file, as an asynchronous hand-off to the per-peer lane
// scheduler (internal/lanes), which flushes control ahead of data, sheds
// under backpressure, and may coalesce several data frames to one peer
// into a single multi-frame transport flush. A transport's refusal of a
// flush is counted there (Stats.SendFailures), never returned to the
// caller, which has moved on by then.
//
// Frames are encoded into pooled buffers (encodePool); the release
// callback threaded through the send path returns a buffer to the pool
// once the last send is done with it, which is what makes the encode
// datapath allocation-free in steady state. The receive side mirrors it:
// handle decodes every inbound frame into pooled storage (decodePool)
// that is the handler's until it returns, so a relay reads the decoded
// message only while handing frames to the send path, never after.

import (
	"sync"
	"sync/atomic"

	"adaptivecast/internal/lanes"
	"adaptivecast/internal/topology"
	"adaptivecast/internal/wire"
)

// encBuf wraps a pooled encode buffer. The pointer wrapper (rather than
// pooling []byte directly) keeps Put/Get from boxing the slice header
// into an interface allocation on every cycle.
type encBuf struct {
	b []byte
	// release returns the buffer to its pool; bound once when the buffer
	// is made, so threading it through a send allocates nothing.
	release func()
}

// encodePool recycles frame encode buffers and counts its effectiveness
// (Stats.EncodePoolHits / EncodePoolMisses).
type encodePool struct {
	pool   sync.Pool
	hits   atomic.Int64
	misses atomic.Int64
}

// get returns a buffer with zero length and whatever capacity its last
// user grew it to.
func (p *encodePool) get() *encBuf {
	if v := p.pool.Get(); v != nil {
		p.hits.Add(1)
		eb := v.(*encBuf)
		eb.b = eb.b[:0]
		return eb
	}
	p.misses.Add(1)
	eb := &encBuf{b: make([]byte, 0, 512)}
	eb.release = func() { p.put(eb) }
	return eb
}

func (p *encodePool) put(eb *encBuf) { p.pool.Put(eb) }

// releaser returns the callback that recycles eb, in the shape the send
// path threads around.
func (p *encodePool) releaser(eb *encBuf) func() { return eb.release }

// decodePool recycles the decode storage of the receive path: handle
// takes one wire.Scratch per inbound frame and puts it back when it
// returns. Transports serialise a node's handler, so one Scratch per node
// is in use at a time; the pool is what keeps a test or a second
// transport goroutine calling handle concurrently safe.
type decodePool struct {
	pool sync.Pool
}

func (p *decodePool) get() *wire.Scratch {
	if v := p.pool.Get(); v != nil {
		return v.(*wire.Scratch)
	}
	return new(wire.Scratch)
}

func (p *decodePool) put(sc *wire.Scratch) { p.pool.Put(sc) }

// sharedRelease fans one release callback out to the several sends of a
// fan-out (one frame, many children): each acquire() hands out a
// callback that must be invoked exactly once, and the underlying
// release runs only after done() and every acquired callback have run —
// whichever happens last. A nil underlying release collapses the whole
// thing to nil (no allocation on the raw-reuse relay path).
type sharedRelease struct {
	left    atomic.Int32
	release func()
	putFn   func() // r.put, bound once: every acquire hands out the same value
}

func newSharedRelease(release func()) *sharedRelease {
	if release == nil {
		return nil
	}
	r := &sharedRelease{release: release}
	r.putFn = r.put
	r.left.Store(1) // the creator's reference, dropped by done()
	return r
}

func (r *sharedRelease) acquire() func() {
	if r == nil {
		return nil
	}
	r.left.Add(1)
	return r.putFn
}

func (r *sharedRelease) put() {
	switch n := r.left.Add(-1); {
	case n == 0:
		r.release()
	case n < 0:
		// A callback ran twice: the buffer behind release is already back
		// in the pool and may be mid-reuse by another send. Fail loudly —
		// a silent double-release is a cross-frame data corruption.
		panic("sendpath: sharedRelease callback invoked twice")
	}
}

func (r *sharedRelease) done() {
	if r != nil {
		r.put()
	}
}

// sendControl ships one pre-encoded protocol-critical frame (heartbeat,
// delta, membership announcement or repair) to one peer on the control
// lane — unbounded, never shed, flushed ahead of any queued data. A nil
// error means the frame was queued. release, when non-nil, is invoked
// exactly once when the lanes are done with the frame bytes.
func (n *Node) sendControl(to topology.NodeID, frame []byte, release func()) error {
	return n.lanes.Enqueue(to, lanes.Control, frame, 1, release)
}

// sendDataN ships copies (> 0) logical copies of a pre-encoded data frame
// to one peer on the data lane, where it may share a flush with other
// broadcasts queued behind a busy drain, and the queue depth may shed it
// under backpressure. It reports how many copies were handed over — all
// of them, or none once the lanes are closed — matching Send's
// best-effort contract (accepted, not necessarily delivered).
func (n *Node) sendDataN(to topology.NodeID, frame []byte, copies int, release func()) (int, error) {
	if err := n.lanes.Enqueue(to, lanes.Data, frame, copies, release); err != nil {
		return 0, err
	}
	return copies, nil
}

// encodeDataFrame serializes a data message into a pooled buffer,
// attaching this node's current knowledge snapshot when piggybacking is
// enabled (each hop re-attaches its own view, so distortion accounting
// matches hop-by-hop heartbeats). The returned release recycles the
// buffer; the caller must thread it through the send path (or invoke it
// itself on paths that never send).
func (n *Node) encodeDataFrame(msg *wire.DataMsg) (frame []byte, release func(), err error) {
	if n.cfg.Piggyback {
		cp := *msg
		n.viewMu.Lock()
		cp.Piggyback = n.view.Snapshot()
		n.viewMu.Unlock()
		msg = &cp
	}
	eb := n.encPool.get()
	b, err := wire.EncodeInto(eb.b, &wire.Frame{Kind: wire.FrameData, Data: msg})
	if err != nil {
		n.encPool.put(eb)
		return nil, nil, err
	}
	eb.b = b
	return b, n.encPool.releaser(eb), nil
}

// relayDataFrame produces the outbound frame for relaying an inbound
// data message, reusing the raw inbound bytes instead of re-serializing
// where it can. Reuse requires buffer ownership (ownsFrames — the
// transport handed the handler the buffer for keeps), since the bytes
// must stay valid for the send path's lifetime:
//
//   - owned, not piggybacking: the relay frame IS the inbound frame —
//     a non-piggybacking relay forwards the message (and whatever
//     snapshot the sender attached) verbatim, so raw is reused as-is:
//     zero encode work, zero copies, nil release.
//   - owned, piggybacking: only the attached snapshot changes hop to
//     hop, so the unchanged prefix (header through body) and suffix
//     (epoch) of raw are spliced around this node's fresh snapshot into
//     a pooled buffer.
//   - not owned (TCP): full re-encode into a pooled buffer.
func (n *Node) relayDataFrame(msg *wire.DataMsg, raw []byte) (frame []byte, release func(), err error) {
	if n.ownsFrames && raw != nil {
		if !n.cfg.Piggyback {
			return raw, nil, nil
		}
		n.viewMu.Lock()
		snap := n.view.Snapshot()
		n.viewMu.Unlock()
		eb := n.encPool.get()
		b, err := wire.SpliceDataPiggyback(eb.b, raw, snap)
		if err == nil {
			eb.b = b
			return b, n.encPool.releaser(eb), nil
		}
		// A frame that decoded but won't splice shouldn't exist; fall back
		// to the full re-encode rather than dropping the relay.
		n.encPool.put(eb)
	}
	return n.encodeDataFrame(msg)
}
