// Package queue holds the on-demand FIFO ring that both the Fabric's
// inbound frames and a node's application deliveries wait in.
package queue

import "sync"

// First is the ring's first allocation: a quiet queue holds at most this
// many slots.
const First = 8

// PutResult says what became of an entry offered to a ring.
type PutResult uint8

const (
	Accepted PutResult = iota
	Full               // the entry would take the ring over its bound
	Closed             // the ring was closed: nothing will take it
)

// PopResult says what Pop found.
type PopResult uint8

const (
	Popped  PopResult = iota
	Empty             // nothing queued yet; wait on Wake
	Drained           // closed and empty: nothing will ever be queued again
)

// Ring is a FIFO that starts empty, doubles on demand and then keeps its
// high-water backing array, so an idle queue costs almost nothing and a
// steady state allocates nothing. Its bound is a total weight: every
// entry weighs weigh(v) >= 1 (1 when weigh is nil, making the bound an
// entry count), and a Put that would carry the total over the bound is
// refused, never blocked. Any number of goroutines may Put and Pop.
//
// Wake carries at most one token. Put leaves one whenever it makes the
// ring non-empty, Pop passes it on while entries remain, and Close leaves
// one for the consumers to find the ring drained, so a consumer that
// waits only after Pop reported Empty always has a token coming.
type Ring[T any] struct {
	mu     sync.Mutex
	ring   []T
	head   int // index of the oldest entry
	n      int // entries held
	used   int // their total weight
	limit  int // the bound on used
	weigh  func(T) int
	closed bool

	wake chan struct{}
}

// Init sets the bound and the weight function; call it once, before the
// ring is shared.
func (q *Ring[T]) Init(limit int, weigh func(T) int) {
	q.limit, q.weigh = limit, weigh
	q.wake = make(chan struct{}, 1)
}

func (q *Ring[T]) weight(v T) int {
	if q.weigh == nil {
		return 1
	}
	return q.weigh(v)
}

// Wake returns the channel a consumer waits on after Pop reported Empty.
func (q *Ring[T]) Wake() <-chan struct{} { return q.wake }

// signal leaves a wake token unless one is already waiting.
func (q *Ring[T]) signal() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// Put appends v unless the ring is closed or v would carry its weight
// over the bound.
func (q *Ring[T]) Put(v T) PutResult {
	w := q.weight(v)
	q.mu.Lock()
	switch {
	case q.closed:
		q.mu.Unlock()
		return Closed
	case w > q.limit-q.used:
		q.mu.Unlock()
		return Full
	case q.n == len(q.ring):
		q.grow()
	}
	i := q.head + q.n
	if i >= len(q.ring) {
		i -= len(q.ring)
	}
	q.ring[i] = v
	q.n++
	q.used += w
	first := q.n == 1
	q.mu.Unlock()
	if first {
		q.signal()
	}
	return Accepted
}

// grow doubles the ring, unwrapping it into the new array. It never
// exceeds the bound in slots, since every entry weighs at least 1.
// Callers hold q.mu.
func (q *Ring[T]) grow() {
	size := min(max(2*len(q.ring), First), q.limit)
	ring := make([]T, size)
	copied := copy(ring, q.ring[q.head:])
	copy(ring[copied:], q.ring[:q.head])
	q.ring, q.head = ring, 0
}

// Pop takes the oldest entry, zeroing its slot so the ring never pins
// what the entry referenced. A closed ring keeps serving what it held and
// releases its array once the last entry is taken.
func (q *Ring[T]) Pop() (T, PopResult) {
	var zero T
	q.mu.Lock()
	if q.n == 0 {
		closed := q.closed
		q.mu.Unlock()
		if closed {
			q.signal() // the next waiting consumer finds it drained too
			return zero, Drained
		}
		return zero, Empty
	}
	v := q.ring[q.head]
	q.ring[q.head] = zero
	q.head++
	if q.head == len(q.ring) {
		q.head = 0
	}
	q.n--
	q.used -= q.weight(v)
	more := q.n > 0
	if !more && q.closed {
		q.ring, q.head = nil, 0
	}
	q.mu.Unlock()
	if more {
		q.signal() // another consumer may be waiting for what is left
	}
	return v, Popped
}

// Len reports how many entries the ring holds.
func (q *Ring[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// Cap reports how many slots the ring's backing array has.
func (q *Ring[T]) Cap() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.ring)
}

// Close refuses every later Put and wakes the consumers. What the ring
// holds stays poppable; Pop reports Drained once it is gone.
func (q *Ring[T]) Close() {
	q.mu.Lock()
	q.closed = true
	if q.n == 0 {
		q.ring, q.head = nil, 0
	}
	q.mu.Unlock()
	q.signal()
}
