package transport

import (
	"adaptivecast/internal/queue"
	"adaptivecast/internal/topology"
)

// inboundFrame is one inbox entry: `copies` logical arrivals of the same
// frame (the handler runs once per copy). The frame is buf's bytes, lent
// by the Fabric's pool; holding the pointer rather than a slice header
// keeps an inbox slot at 24 bytes.
type inboundFrame struct {
	from   topology.NodeID
	buf    *lentBuf
	copies int
}

// deliver runs h once per logical copy of the frame.
func (in inboundFrame) deliver(h Handler) {
	if h == nil {
		return
	}
	for i := 0; i < in.copies; i++ {
		h(in.from, in.buf.b)
	}
}

// inbox is a Fabric endpoint's inbound FIFO: an on-demand ring bounded
// at QueueSize entries. The endpoint's receive loop is its one consumer;
// any number of senders fill it, and a sender that finds it full drops.
type inbox struct{ queue.Ring[inboundFrame] }

func (q *inbox) init(limit int) { q.Init(limit, nil) }

// close refuses every later put, empties the ring, hands each buffer it
// held to release and reports how many logical copies it still held,
// which no handler will ever see.
func (q *inbox) close(release func(*lentBuf)) (dropped int) {
	q.Close()
	for in, r := q.Pop(); r == queue.Popped; in, r = q.Pop() {
		release(in.buf)
		dropped += in.copies
	}
	return dropped
}
