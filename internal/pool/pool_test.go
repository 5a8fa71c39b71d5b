package pool

import (
	"testing"

	"adaptivecast/internal/raceflag"
)

type item struct {
	b       []byte
	release func()
}

// TestPoolCountsAndHooks: a miss makes a value with New (new(T) without
// it), a Put and a Get make a hit with the same value, Reset clears what
// goes back and drops what it declines to keep, and Releaser hands out
// the callback New bound.
func TestPoolCountsAndHooks(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("a race build's sync.Pool drops what is put back at random")
	}
	var zero Pool[item]
	if x := zero.Get(); x == nil || zero.Misses() != 1 || zero.Hits() != 0 {
		t.Fatalf("zero pool: Get = %v, %d misses, %d hits; want a new value and one miss", x, zero.Misses(), zero.Hits())
	}

	var p Pool[item]
	p.New = func() *item {
		x := &item{b: make([]byte, 0, 8)}
		x.release = func() { p.Put(x) }
		return x
	}
	p.Reset = func(x *item) bool {
		x.b = x.b[:0]
		return cap(x.b) <= 16
	}
	p.Release = func(x *item) func() { return x.release }

	x := p.Get()
	x.b = append(x.b, 1, 2, 3)
	p.Releaser(x)()
	if y := p.Get(); y != x || len(y.b) != 0 || p.Hits() != 1 || p.Misses() != 1 {
		t.Fatalf("after a release: Get = %p (len %d), %d hits, %d misses; want %p emptied, one of each", y, len(y.b), p.Hits(), p.Misses(), x)
	}
	x.b = make([]byte, 0, 32) // grown past what Reset keeps
	p.Put(x)
	if y := p.Get(); y == x || p.Misses() != 2 {
		t.Fatalf("a value Reset declined came back from the pool (%d misses)", p.Misses())
	}
}
