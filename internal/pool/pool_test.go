package pool

import (
	"strings"
	"testing"

	"adaptivecast/internal/raceflag"
)

type item struct {
	b       []byte
	release func()
}

// TestPoolCountsAndHooks: a miss makes a value with New (new(T) without
// it), a Put and a Get make a hit with the same value, Reset clears what
// goes back and drops what it declines to keep, and a put-back callback
// New bound works as the Put it makes.
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

	x := p.Get()
	x.b = append(x.b, 1, 2, 3)
	x.release()
	if y := p.Get(); y != x || len(y.b) != 0 || p.Hits() != 1 || p.Misses() != 1 {
		t.Fatalf("after a release: Get = %p (len %d), %d hits, %d misses; want %p emptied, one of each", y, len(y.b), p.Hits(), p.Misses(), x)
	}
	x.b = make([]byte, 0, 32) // grown past what Reset keeps
	p.Put(x)
	if y := p.Get(); y == x || p.Misses() != 2 {
		t.Fatalf("a value Reset declined came back from the pool (%d misses)", p.Misses())
	}
}

// mustPanic runs f and fails the test unless it panics with a message
// containing want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		msg, _ := recover().(string)
		if !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want one containing %q", msg, want)
		}
	}()
	f()
}

// TestPutOfValueNotOutPanics: in a test binary a pool knows which values
// are out, so a second Put of one value — directly or through its release
// callback — a Put of a value no Get returned, and a Put into another
// pool all panic at the Put, before the pool can hand the value to a
// second owner.
func TestPutOfValueNotOutPanics(t *testing.T) {
	var p, q Pool[item]
	p.New = func() *item {
		x := &item{}
		x.release = func() { p.Put(x) }
		return x
	}

	x := p.Get()
	p.Put(x)
	mustPanic(t, "not out", func() { p.Put(x) })

	x = p.Get()
	rel := x.release
	rel()
	mustPanic(t, "not out", rel)

	mustPanic(t, "not out", func() { p.Put(&item{}) })

	x = p.Get()
	mustPanic(t, "not out of this pool", func() { q.Put(x) })
	p.Put(x)
}

type leased struct{ n int }

// TestOutstandingListsValuesNotPutBack: Outstanding counts, per type,
// the values taken and not yet put back, which is what leakcheck.Main
// fails a test binary on.
func TestOutstandingListsValuesNotPutBack(t *testing.T) {
	var p Pool[leased]
	line := func() string {
		for _, l := range Outstanding() {
			if strings.HasSuffix(l, " *pool.leased") {
				return l
			}
		}
		return ""
	}
	a, b := p.Get(), p.Get()
	if got := line(); got != "2 *pool.leased" {
		t.Fatalf("with two values out, Outstanding reports %q", got)
	}
	p.Put(a)
	p.Put(b)
	if got := line(); got != "" {
		t.Fatalf("with every value back, Outstanding still reports %q", got)
	}
}

// TestAllocsCheckedGetPut: the ownership check adds no allocation to a
// warm Get/Put cycle, so the datapath's AllocsPerRun pins read the same
// with it on.
func TestAllocsCheckedGetPut(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("a race build's sync.Pool drops what is put back at random")
	}
	var p Pool[item]
	held := make([]*item, 64)
	for i := range held {
		held[i] = p.Get()
	}
	for _, x := range held {
		p.Put(x)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		x, y := p.Get(), p.Get()
		p.Put(y)
		p.Put(x)
	}); allocs != 0 {
		t.Fatalf("a warm Get/Put cycle allocated %.1f times, want 0", allocs)
	}
}
