package transport

import (
	"sync"

	"adaptivecast/internal/topology"
)

// inboundFrame is one inbox entry: `copies` logical arrivals of the same
// frame (the handler runs once per copy).
type inboundFrame struct {
	from   topology.NodeID
	frame  []byte
	copies int
}

// deliver runs h once per logical copy of the frame.
func (in inboundFrame) deliver(h Handler) {
	if h == nil {
		return
	}
	for i := 0; i < in.copies; i++ {
		h(in.from, in.frame)
	}
}

// inboxFirst is the ring's first allocation: a quiet endpoint holds at
// most this many slots.
const inboxFirst = 8

// putResult says what became of a frame offered to an inbox.
type putResult uint8

const (
	putOK     putResult = iota
	putFull             // the inbox holds its bound already
	putClosed           // the consumer is gone for good
)

// inbox is a Fabric endpoint's inbound FIFO: a ring that starts empty,
// doubles on demand up to its bound and then keeps its high-water backing
// array, so an idle endpoint costs almost nothing and a steady state
// allocates nothing. One consumer drains it; any number of producers fill
// it, and a producer that finds it full drops (put never blocks).
//
// wake carries at most one token. put leaves one whenever it makes the
// ring non-empty, and the consumer only waits after take found the ring
// empty, so a waiting consumer always has a token coming.
type inbox struct {
	mu     sync.Mutex
	ring   []inboundFrame
	head   int // index of the oldest entry
	n      int // entries held
	limit  int // the bound: QueueSize
	closed bool

	//adaptivelint:chan owner=inbox.put close=never
	wake chan struct{}
}

func (q *inbox) init(limit int) {
	q.limit = limit
	q.wake = make(chan struct{}, 1)
}

// put appends in unless the inbox is full or closed.
func (q *inbox) put(in inboundFrame) putResult {
	q.mu.Lock()
	switch {
	case q.closed:
		q.mu.Unlock()
		return putClosed
	case q.n == q.limit:
		q.mu.Unlock()
		return putFull
	case q.n == len(q.ring):
		q.grow()
	}
	i := q.head + q.n
	if i >= len(q.ring) {
		i -= len(q.ring)
	}
	q.ring[i] = in
	q.n++
	first := q.n == 1
	q.mu.Unlock()
	if first {
		select {
		case q.wake <- struct{}{}:
		default:
		}
	}
	return putOK
}

// grow doubles the ring (up to the bound), unwrapping it into the new
// array. Callers hold q.mu.
func (q *inbox) grow() {
	size := min(max(2*len(q.ring), inboxFirst), q.limit)
	ring := make([]inboundFrame, size)
	copied := copy(ring, q.ring[q.head:])
	copy(ring[copied:], q.ring[:q.head])
	q.ring, q.head = ring, 0
}

// take pops the oldest entry, zeroing its slot so the ring never pins a
// frame buffer the handler is done with.
func (q *inbox) take() (inboundFrame, bool) {
	q.mu.Lock()
	if q.n == 0 {
		q.mu.Unlock()
		return inboundFrame{}, false
	}
	in := q.ring[q.head]
	q.ring[q.head] = inboundFrame{}
	q.head++
	if q.head == len(q.ring) {
		q.head = 0
	}
	q.n--
	q.mu.Unlock()
	return in, true
}

// len reports how many entries the inbox holds.
func (q *inbox) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// close refuses every later put, releases the ring and reports how many
// logical copies it still held, which no handler will ever see.
func (q *inbox) close() (dropped int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i := 0; i < q.n; i++ {
		j := q.head + i
		if j >= len(q.ring) {
			j -= len(q.ring)
		}
		dropped += q.ring[j].copies
	}
	q.closed = true
	q.ring, q.head, q.n = nil, 0, 0
	return dropped
}
