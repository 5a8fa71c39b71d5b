package node

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/pool"
	"adaptivecast/internal/topology"
	"adaptivecast/internal/wire"
)

// These tests pin the fan-out's shared release: the reference count an
// encode buffer carries (encBuf.refs). The buffer goes back to its pool
// exactly once, after the taker's done and every send's callback,
// whichever runs last; a fan-out to no child is legal; a relay of the
// inbound bytes has no buffer and hands out no callback; and a callback
// run twice fails loudly, also once the buffer has gone back and been
// taken again, instead of recycling a buffer that a send may be reading.
// A buffer never let go stays out of its pool, which leakcheck.Main
// reports when the tests end.

// countingEncodePool is a node that has only its encode pool, readied as
// New readies it, which counts the buffers it takes back.
func countingEncodePool() (*Node, *atomic.Int32) {
	nd := new(Node)
	nd.initEncodePool()
	returned := new(atomic.Int32)
	reset := nd.encPool.Reset
	nd.encPool.Reset = func(eb *encBuf) bool {
		returned.Add(1)
		return reset(eb)
	}
	return nd, returned
}

// mustPanicTwice runs f and fails the test unless it panics with the
// message of a reference dropped twice.
func mustPanicTwice(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if msg, _ := recover().(string); !strings.Contains(msg, "dropped twice") {
			t.Fatalf("%s: panic %q, want the message of a reference dropped twice", what, msg)
		}
	}()
	f()
}

func TestSharedReleaseZeroAcquireDone(t *testing.T) {
	nd, returned := countingEncodePool()
	// No send at all: the taker's reference is the only one, and done
	// must return the buffer exactly once.
	nd.takeEncBuf().done()
	if got := returned.Load(); got != 1 {
		t.Fatalf("buffer returned %d times after a done with no send, want 1", got)
	}
}

func TestSharedReleaseLastReferenceWins(t *testing.T) {
	nd, returned := countingEncodePool()
	for i, doneFirst := range []bool{true, false} {
		eb := nd.takeEncBuf()
		cb := eb.acquire()
		if doneFirst {
			eb.done()
			if returned.Load() != int32(i) {
				t.Fatal("buffer returned before the send's callback ran")
			}
			cb()
		} else {
			cb()
			if returned.Load() != int32(i) {
				t.Fatal("buffer returned before done")
			}
			eb.done()
		}
		if got := returned.Load(); got != int32(i+1) {
			t.Fatalf("doneFirst=%v: buffer returned %d times, want 1", doneFirst, got-int32(i))
		}
	}

	// As the lanes run them: every child's callback from a drain
	// goroutine of its own, racing the taker's done.
	const rounds, children = 50, 8
	returned.Store(0)
	for r := 0; r < rounds; r++ {
		eb := nd.takeEncBuf()
		var wg sync.WaitGroup
		for c := 0; c < children; c++ {
			cb := eb.acquire()
			wg.Add(1)
			go func() {
				defer wg.Done()
				cb()
			}()
		}
		eb.done()
		wg.Wait()
		if got := returned.Load(); got != int32(r+1) {
			t.Fatalf("round %d: %d buffers returned after %d rounds of %d concurrent callbacks", r, got, r+1, children)
		}
	}
}

func TestSharedReleaseDoublePutPanics(t *testing.T) {
	// back is how many buffers the pool took back, and fails the test
	// unless it is want.
	back := func(returned *atomic.Int32, want int32) {
		t.Helper()
		if got := returned.Load(); got != want {
			t.Fatalf("buffer returned %d times, want %d", got, want)
		}
	}

	nd, returned := countingEncodePool()
	eb := nd.takeEncBuf()
	eb.done()
	back(returned, 1)
	mustPanicTwice(t, "a second done", eb.done)

	// A send's callback run twice, after the buffer went back to the pool
	// and was taken again: the count belongs to its next taker now, who
	// has handed it to no send.
	nd, returned = countingEncodePool()
	eb = nd.takeEncBuf()
	cb := eb.acquire()
	eb.done()
	cb()
	back(returned, 1)
	again := nd.takeEncBuf()
	mustPanicTwice(t, "a callback run twice once the buffer was taken again", cb)
	nd.encPool.Put(again) // its count is spent; it goes back by hand

	// Run twice while the buffer waits in the pool.
	nd, returned = countingEncodePool()
	eb = nd.takeEncBuf()
	cb = eb.acquire()
	cb()
	eb.done()
	mustPanicTwice(t, "a callback run twice while the buffer is pooled", cb)
	back(returned, 1)
}

// TestRelaySpliceZeroAllocUnderRace pins the relay splice hot path —
// writing a fresh piggyback snapshot into a raw inbound frame held in a
// pooled buffer — at 0 allocs/op, in a form that stays valid under
// -race. The encode pool round-trip is deliberately outside the measured
// region: sync.Pool drops Puts at random when the race detector is on,
// and a dropped Put would charge the next miss's allocation to the
// loop. What the loop measures is the steady-state per-relay work once
// the pool is warm, which is exactly what encodeDataFrame does per relay
// (wire-level splice correctness is pinned in internal/wire).
func TestRelaySpliceZeroAllocUnderRace(t *testing.T) {
	sender, err := knowledge.NewView(2, 5, []topology.NodeID{1, 3}, nil, knowledge.Params{})
	if err != nil {
		t.Fatal(err)
	}
	sender.BeginPeriod()
	raw, err := wire.Encode(&wire.Frame{Kind: wire.FrameData, Data: &wire.DataMsg{
		Origin: 2, Seq: 7, Root: 2, Body: []byte("relay payload"), Piggyback: sender.Snapshot(),
	}})
	if err != nil {
		t.Fatal(err)
	}

	relayer, err := knowledge.NewView(1, 5, []topology.NodeID{0, 2}, nil, knowledge.Params{})
	if err != nil {
		t.Fatal(err)
	}
	relayer.BeginPeriod()
	snap := relayer.Snapshot()

	var encPool pool.Pool[encBuf]
	eb := encPool.Get()
	defer encPool.Put(eb)
	allocs := testing.AllocsPerRun(100, func() {
		b, err := wire.SpliceDataPiggyback(eb.b[:0], raw, snap)
		if err != nil {
			t.Fatal(err)
		}
		eb.b = b
	})
	if allocs != 0 {
		t.Fatalf("relay splice allocated %.1f times per op, want 0", allocs)
	}
}
