package node

// The send path: every outbound frame leaves the node through the
// helpers in this file, as an asynchronous hand-off to the per-peer lane
// scheduler (internal/lanes), which flushes control ahead of data, sheds
// under backpressure, and may coalesce several data frames to one peer
// into a single multi-frame transport flush. A transport's refusal of a
// flush is counted there (Stats.SendFailures), never returned to the
// caller, which has moved on by then.
//
// Frames are encoded into pooled buffers (Node.encPool), each counting
// its readers: the code that encoded into it, and one per send it handed
// the frame to, through a callback bound when the buffer was made. The
// last to let go returns it to the pool, so a frame fanned out to every
// child of a broadcast recycles after the last child's send, and the
// encode datapath allocates nothing in steady state. The receive side
// mirrors it: handle decodes every inbound frame into pooled storage
// (Node.decPool) that is the handler's until it returns, so a relay
// reads the decoded message only while handing frames to the send path.

import (
	"fmt"
	"sync/atomic"

	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/lanes"
	"adaptivecast/internal/pool"
	"adaptivecast/internal/topology"
	"adaptivecast/internal/wire"
)

// encBuf wraps a pooled encode buffer. The pointer wrapper (rather than
// pooling []byte directly) keeps Put/Get from boxing the slice header
// into an interface allocation on every cycle. refs counts b's readers,
// and the last to let go puts the buffer back: its taker until done, and
// each send until the lanes run put, which acquire hands them and which
// is bound once, when the buffer is made, so a fan-out allocates nothing.
type encBuf struct {
	b    []byte
	refs atomic.Int32
	put  func() // drops one send's reference
	pool *pool.Pool[encBuf]
}

// The taker's reference is a bit above the sends' count, so a drop can
// tell whether a reference of its kind was there to drop.
const (
	heldRef  = 1 << 30
	sendRefs = heldRef - 1
)

// initEncodePool readies the node's encode pool (Stats.EncodePoolHits /
// EncodePoolMisses count its effectiveness): each buffer starts at 512
// bytes with its put callback bound, and comes back emptied with
// whatever capacity its last user grew it to.
func (n *Node) initEncodePool() {
	p := &n.encPool
	p.New = func() *encBuf {
		eb := &encBuf{b: make([]byte, 0, 512), pool: p}
		eb.put = func() { eb.drop(1, sendRefs) }
		return eb
	}
	p.Reset = func(eb *encBuf) bool {
		eb.b = eb.b[:0]
		return true
	}
}

// takeEncBuf takes a buffer from the encode pool, held by the caller
// until it calls done.
func (n *Node) takeEncBuf() *encBuf {
	eb := n.encPool.Get()
	eb.refs.Add(heldRef)
	return eb
}

// acquire takes a reference for one send and returns its release. A nil
// buffer (a relay of the inbound bytes as they are) hands out nil.
func (eb *encBuf) acquire() func() {
	if eb == nil {
		return nil
	}
	eb.refs.Add(1)
	return eb.put
}

// done drops the taker's reference; the buffer goes back to its pool
// once every send acquired from it has let go too.
func (eb *encBuf) done() {
	if eb != nil {
		eb.drop(heldRef, heldRef)
	}
}

// drop takes ref off the count, which must hold one of its kind (kind
// masks them). One that does not was dropped twice, and the buffer may be
// pooled or serving its next taker: fail loudly rather than recycle it
// under a send that still reads it.
func (eb *encBuf) drop(ref, kind int32) {
	left := eb.refs.Add(-ref)
	if (left+ref)&kind == 0 {
		panic("sendpath: an encode buffer reference was dropped twice")
	}
	if left == 0 {
		eb.pool.Put(eb)
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

// fanOut tallies the hand-offs of one data frame to several peers.
type fanOut struct {
	attempted, sent int
	lastErr         error
}

// sendData hands copies (> 0) logical copies of a pre-encoded data frame
// to one peer on the data lane — where it may share a flush, or be shed
// under backpressure — taking a send's reference on eb, the pooled buffer
// frame lives in (nil for inbound bytes relayed as they are).
func (n *Node) sendData(f *fanOut, to topology.NodeID, frame []byte, copies int, eb *encBuf) {
	f.attempted += copies
	if err := n.lanes.Enqueue(to, lanes.Data, frame, copies, eb.acquire()); err != nil {
		f.lastErr = err
	} else {
		f.sent += copies
	}
}

// settle drops the caller's reference on eb, so the buffer recycles after
// the last send, and counts what went out; when the lanes refused every
// hand-off (the scheduler is closed) the frame went nowhere, and it says so.
func (n *Node) settle(f *fanOut, eb *encBuf, what string) error {
	eb.done()
	n.stats.dataSent.Add(int64(f.sent))
	if f.attempted > 0 && f.sent == 0 {
		return fmt.Errorf("node: all %d %s failed: %w", f.attempted, what, f.lastErr)
	}
	return nil
}

// encodeDataFrame serializes a data message into a pooled buffer. A
// non-nil snap — this node's knowledge snapshot, cut under the node lock
// when piggybacking is enabled — replaces whatever snapshot msg carries
// (each hop re-attaches its own view, so distortion accounting matches
// hop-by-hop heartbeats). The caller holds eb, the buffer frame lives in,
// until it calls eb.done, having acquired a reference for each send.
func (n *Node) encodeDataFrame(msg *wire.DataMsg, snap *knowledge.Snapshot) (frame []byte, eb *encBuf, err error) {
	if snap != nil {
		cp := *msg
		cp.Piggyback = snap
		msg = &cp
	}
	eb = n.takeEncBuf()
	b, err := wire.EncodeInto(eb.b, &wire.Frame{Kind: wire.FrameData, Data: msg})
	if err != nil {
		eb.done()
		return nil, nil, err
	}
	eb.b = b
	return b, eb, nil
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
//     zero encode work, zero copies, no buffer to count.
//   - owned, piggybacking: only the attached snapshot changes hop to
//     hop, so the unchanged prefix (header through body) and suffix
//     (epoch) of raw are spliced around this node's fresh snapshot into
//     a pooled buffer.
//   - not owned (a transport that is no FrameOwner; both shipped ones
//     are): full re-encode into a pooled buffer.
//
// A pooled frame comes with its buffer, held as encodeDataFrame's is.
func (n *Node) relayDataFrame(msg *wire.DataMsg, raw []byte, snap *knowledge.Snapshot) (frame []byte, eb *encBuf, err error) {
	if n.ownsFrames && raw != nil {
		if snap == nil {
			return raw, nil, nil
		}
		eb = n.takeEncBuf()
		b, err := wire.SpliceDataPiggyback(eb.b, raw, snap)
		if err == nil {
			eb.b = b
			return b, eb, nil
		}
		// A frame that decoded but won't splice shouldn't exist; fall back
		// to the full re-encode rather than dropping the relay.
		eb.done()
	}
	return n.encodeDataFrame(msg, snap)
}
