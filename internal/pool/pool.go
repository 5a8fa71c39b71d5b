// Package pool is the datapath's one recycling helper: a typed sync.Pool
// that counts how often Get found a value to reuse. The node's encode
// buffers, decode storage, replan and heartbeat-period workspaces and
// TCP's write buffers are each an instance of it.
//
// A value taken with Get belongs to the caller until it goes back with
// Put (or through the callback Releaser hands out); the buflife analyzer
// holds every get to exactly one release on every path.
package pool

import (
	"sync"
	"sync/atomic"
)

// Pool recycles *T values. The zero value is ready to use and makes
// values with new(T); the optional hooks are set before first use and
// never changed.
type Pool[T any] struct {
	// New, when set, makes the value a Get returns when nothing is pooled.
	New func() *T
	// Reset, when set, runs as Put takes x back: it clears whatever x
	// must not keep alive while pooled, and reports whether x is worth
	// keeping. A false return drops x for the collector, which is how a
	// pool declines to pin a value grown far past its usual size.
	Reset func(x *T) bool
	// Release, when set, returns x's own put-back callback — bound once,
	// when New made x, so handing it out allocates nothing (see Releaser).
	Release func(x *T) func()

	pool   sync.Pool
	hits   atomic.Int64
	misses atomic.Int64
}

// Get returns a pooled value, or a fresh one when the pool is empty.
func (p *Pool[T]) Get() *T {
	if v := p.pool.Get(); v != nil {
		p.hits.Add(1)
		return v.(*T)
	}
	p.misses.Add(1)
	if p.New != nil {
		return p.New()
	}
	return new(T)
}

// Put returns x to the pool; the caller must not touch x afterwards.
func (p *Pool[T]) Put(x *T) {
	if p.Reset != nil && !p.Reset(x) {
		return
	}
	p.pool.Put(x)
}

// Releaser returns the callback that puts x back, for a pool whose
// Release hook binds one: the shape the send path threads through to the
// code that is last to use x. Invoking it is x's Put.
func (p *Pool[T]) Releaser(x *T) func() { return p.Release(x) }

// Hits counts the Gets served by a recycled value.
func (p *Pool[T]) Hits() int64 { return p.hits.Load() }

// Misses counts the Gets that had to make a fresh value.
func (p *Pool[T]) Misses() int64 { return p.misses.Load() }
