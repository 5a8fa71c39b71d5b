package queue

import (
	"sync"
	"testing"
)

// pop waits for the next entry the way a consumer does: Pop, and on Empty
// wait for a wake token and try again.
func pop(q *Ring[int]) (int, bool) {
	for {
		v, r := q.Pop()
		switch r {
		case Popped:
			return v, true
		case Drained:
			return 0, false
		}
		<-q.Wake()
	}
}

// TestRingFIFOAcrossGrowOfWrappedRing: a ring whose live entries wrap
// past its end keeps their order when it doubles.
func TestRingFIFOAcrossGrowOfWrappedRing(t *testing.T) {
	var q Ring[int]
	q.Init(64, nil)
	next, want := 0, 0
	for ; next < First; next++ {
		q.Put(next)
	}
	for ; want < 5; want++ {
		if v, r := q.Pop(); r != Popped || v != want {
			t.Fatalf("pop = %d, %d; want %d", v, r, want)
		}
	}
	for ; next < First+5; next++ {
		q.Put(next)
	}
	if len(q.ring) != First || q.head == 0 {
		t.Fatalf("ring of %d slots, head %d: the test wants a full, wrapped ring", len(q.ring), q.head)
	}
	for ; next < 40; next++ {
		q.Put(next)
	}
	for ; want < next; want++ {
		if v, r := q.Pop(); r != Popped || v != want {
			t.Fatalf("pop = %d, %d; want %d", v, r, want)
		}
	}
}

// TestRingBoundIsTotalWeight: the bound caps the summed weight of what is
// held, an entry heavier than the whole bound is refused even by an empty
// ring, and popping gives its weight back.
func TestRingBoundIsTotalWeight(t *testing.T) {
	var q Ring[int]
	q.Init(100, func(v int) int { return v })
	for _, c := range []struct {
		v    int
		want PutResult
	}{{101, Full}, {60, Accepted}, {41, Full}, {40, Accepted}, {1, Full}} {
		if r := q.Put(c.v); r != c.want {
			t.Fatalf("put %d with %d held = %d, want %d", c.v, q.used, r, c.want)
		}
	}
	if v, _ := q.Pop(); v != 60 || q.used != 40 {
		t.Fatalf("popped %d leaving %d held, want 60 leaving 40", v, q.used)
	}
	if r := q.Put(60); r != Accepted {
		t.Fatalf("put 60 after the pop = %d, want Accepted", r)
	}
	if len(q.ring) != First {
		t.Fatalf("two entries grew the ring to %d slots", len(q.ring))
	}
}

// TestRingPopZeroesSlot: a popped slot no longer references its entry.
func TestRingPopZeroesSlot(t *testing.T) {
	var q Ring[[]byte]
	q.Init(4, nil)
	q.Put(make([]byte, 64))
	q.Put(make([]byte, 64))
	q.Pop()
	if q.ring[0] != nil {
		t.Fatalf("the popped slot still holds %d bytes", len(q.ring[0]))
	}
}

// TestRingCloseServesWhatItHeld: Close refuses new entries but every
// held one is still popped in order; the ring then reports Drained and
// has given back its array.
func TestRingCloseServesWhatItHeld(t *testing.T) {
	var q Ring[int]
	q.Init(8, nil)
	q.Put(1)
	q.Put(2)
	q.Close()
	if r := q.Put(3); r != Closed {
		t.Fatalf("put after close = %d, want Closed", r)
	}
	for want := 1; want <= 2; want++ {
		if v, ok := pop(&q); !ok || v != want {
			t.Fatalf("pop = %d, %v; want %d", v, ok, want)
		}
	}
	if _, r := q.Pop(); r != Drained {
		t.Fatalf("pop on a closed, empty ring = %d, want Drained", r)
	}
	if q.Cap() != 0 {
		t.Fatalf("a drained ring keeps %d slots", q.Cap())
	}
}

// TestRingWakesEveryConsumer: consumers that each take one entry and
// return — the way Next is called — all get one, however the puts and
// the wake tokens interleave, and Close releases the ones left waiting.
func TestRingWakesEveryConsumer(t *testing.T) {
	const consumers, entries = 8, 1000
	var q Ring[int]
	q.Init(entries, nil)
	got := make(chan int, entries)
	var wg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				v, ok := pop(&q)
				if !ok {
					return
				}
				got <- v
			}
		}()
	}
	for i := 0; i < entries; i++ {
		q.Put(i)
	}
	seen := make([]bool, entries)
	for i := 0; i < entries; i++ {
		v := <-got
		if seen[v] {
			t.Fatalf("entry %d taken twice", v)
		}
		seen[v] = true
	}
	q.Close()
	wg.Wait()
}
