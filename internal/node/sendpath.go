package node

// The send path: every outbound frame leaves the node through the
// helpers in this file, as an asynchronous hand-off to the per-peer lane
// scheduler (internal/lanes), which flushes control ahead of data, sheds
// under backpressure, and may coalesce data frames to one peer into one
// transport flush; a refused flush is counted there (Stats.SendFailures).
// Frames are encoded into pooled buffers (Node.encPool) that count their
// readers — the encoder and each send — and the last to let go returns
// the buffer, so a fan-out recycles after the last child's send and the
// encode datapath allocates nothing in steady state. A relay copies the
// inbound bytes, which the transport takes back when handle returns,
// into such a buffer.

import (
	"fmt"
	"sync/atomic"

	"adaptivecast/internal/dataplane"
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

// acquire takes a reference for one send and returns its release.
func (eb *encBuf) acquire() func() {
	eb.refs.Add(1)
	return eb.put
}

// done drops the taker's reference; the buffer goes back to its pool
// once every send acquired from it has let go too.
func (eb *encBuf) done() { eb.drop(heldRef, heldRef) }

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

// send hands the copies s names of a pre-encoded data frame to the data
// lane, each peer's m[j] identical copies as one SendN flush (one fabric
// enqueue per peer; one TCP flush carrying the frame once), where they may
// share a flush with other frames or be shed under backpressure. Each
// peer's hand-off takes a send's reference on eb, the pooled buffer frame
// lives in, and the caller's reference is dropped after the last, so the
// buffer recycles after the last flush. What went out is counted; when
// the lanes refused every hand-off (the scheduler is closed) the frame
// went nowhere, and send says so.
func (n *Node) send(s dataplane.Sends, frame []byte, eb *encBuf) error {
	var attempted, sent int
	var lastErr error
	for to, copies, ok := s.Next(); ok; to, copies, ok = s.Next() {
		attempted += copies
		if err := n.lanes.Enqueue(to, lanes.Data, frame, copies, eb.acquire()); err != nil {
			lastErr = err
		} else {
			sent += copies
		}
	}
	eb.done()
	n.stats.dataSent.Add(int64(sent))
	if attempted > 0 && sent == 0 {
		return fmt.Errorf("node: all %d data sends failed: %w", attempted, lastErr)
	}
	return nil
}

// encodeDataFrame writes the frame relaying msg, decoded from raw, into a
// pooled buffer (dataplane.AppendRelay): raw copied as it came, or
// spliced around snap when snap is set; without raw — an origin's own
// frame — msg encoded afresh, with snap as its piggyback. The caller
// holds eb, the buffer frame lives in, until it calls eb.done, having
// acquired a reference for each send.
func (n *Node) encodeDataFrame(msg *wire.DataMsg, raw []byte, snap *knowledge.Snapshot) (frame []byte, eb *encBuf, err error) {
	eb = n.takeEncBuf()
	b, err := dataplane.AppendRelay(eb.b, msg, raw, snap)
	if err != nil {
		eb.done()
		return nil, nil, err
	}
	eb.b = b
	return b, eb, nil
}
