// Package pool is the datapath's one recycling helper: a typed sync.Pool
// that counts how often Get found a value to reuse. The node's encode
// buffers, decode storage, replan and heartbeat-period workspaces and
// TCP's write buffers are each an instance of it.
//
// A value taken with Get belongs to the caller until it goes back with
// Put, exactly once. In a test binary every pool checks that: it tracks
// each value it hands out, a Put of a value that is not out panics (a
// double Put, a release callback run twice, a value put into a pool it
// did not come from), and Outstanding lists what was never given back,
// which leakcheck.Main fails the binary on. Outside a test binary the
// check is off, and Get and Put cost one branch more than the bare
// sync.Pool.
package pool

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
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

	pool   sync.Pool
	hits   atomic.Int64
	misses atomic.Int64

	once sync.Once
	out  *ledger[T] // in a test binary: the values out of this pool
}

// Get returns a pooled value, or a fresh one when the pool is empty.
func (p *Pool[T]) Get() *T {
	var x *T
	if v := p.pool.Get(); v != nil {
		p.hits.Add(1)
		x = v.(*T)
	} else {
		p.misses.Add(1)
		if p.New != nil {
			x = p.New()
		} else {
			x = new(T)
		}
	}
	if checked {
		p.ledger().take(x)
	}
	return x
}

// Put returns x to the pool; the caller must not touch x afterwards.
func (p *Pool[T]) Put(x *T) {
	if checked {
		p.ledger().give(x)
	}
	if p.Reset != nil && !p.Reset(x) {
		return
	}
	p.pool.Put(x)
}

// Hits counts the Gets served by a recycled value.
func (p *Pool[T]) Hits() int64 { return p.hits.Load() }

// Misses counts the Gets that had to make a fresh value.
func (p *Pool[T]) Misses() int64 { return p.misses.Load() }

// checked turns the ownership check on in test binaries.
var checked = testing.Testing()

// ledger is the values one pool has handed out and not had back. Each
// pool has its own: one lock for the process would order every pool's
// users after each other, which hides races from -race and slows the
// timing-sensitive tests. It is apart from the Pool so that the registry
// of ledgers, which Outstanding reads, keeps no pool, nor the node that
// embeds it, alive. Once its map has grown to the most values ever out
// at once, taking and giving back allocate nothing, so the allocation
// pins hold with the check on.
type ledger[T any] struct {
	mu  sync.Mutex
	out map[*T]struct{}
}

// ledgers registers every ledger a pool has made.
var ledgers struct {
	sync.Mutex
	all []interface{ outstanding() (typ string, n int) }
}

func (p *Pool[T]) ledger() *ledger[T] {
	p.once.Do(func() {
		p.out = &ledger[T]{out: make(map[*T]struct{})}
		ledgers.Lock()
		ledgers.all = append(ledgers.all, p.out)
		ledgers.Unlock()
	})
	return p.out
}

func (l *ledger[T]) take(x *T) {
	l.mu.Lock()
	l.out[x] = struct{}{}
	l.mu.Unlock()
}

func (l *ledger[T]) give(x *T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.out[x]; !ok {
		panic(fmt.Sprintf("pool: Put of a %T that is not out of this pool: put back twice, or taken elsewhere", x))
	}
	delete(l.out, x)
}

func (l *ledger[T]) outstanding() (typ string, n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return fmt.Sprintf("%T", (*T)(nil)), len(l.out)
}

// Outstanding describes the values taken from any pool and not put back
// yet, one "N *T" line per type; it is empty outside a test binary.
func Outstanding() []string {
	n := map[string]int{}
	ledgers.Lock()
	for _, l := range ledgers.all {
		if typ, c := l.outstanding(); c > 0 {
			n[typ] += c
		}
	}
	ledgers.Unlock()
	lines := make([]string, 0, len(n))
	for typ, c := range n {
		lines = append(lines, fmt.Sprintf("%d %s", c, typ))
	}
	sort.Strings(lines)
	return lines
}
