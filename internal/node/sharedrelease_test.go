package node

import (
	"strings"
	"testing"

	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/pool"
	"adaptivecast/internal/topology"
	"adaptivecast/internal/wire"
)

// These tests pin the sharedRelease edge cases: the underlying release
// runs exactly once no matter how done() and the acquired callbacks
// interleave, a fan-out of zero is legal, and a callback invoked twice
// fails loudly instead of recycling a buffer another send may already be
// reusing. One never released leaves its pooled buffer out, which
// leakcheck.Main reports when the tests end.

func TestSharedReleaseZeroAcquireDone(t *testing.T) {
	released := 0
	r := newSharedRelease(func() { released++ })
	// No acquire at all: the creator's reference is the only one, and
	// done() must fire the release exactly once.
	r.done()
	if released != 1 {
		t.Fatalf("release ran %d times after zero-acquire done(), want 1", released)
	}
}

func TestSharedReleaseLastReferenceWins(t *testing.T) {
	for _, doneFirst := range []bool{true, false} {
		released := 0
		r := newSharedRelease(func() { released++ })
		cb := r.acquire()
		if doneFirst {
			r.done()
			if released != 0 {
				t.Fatalf("release ran before the acquired callback")
			}
			cb()
		} else {
			cb()
			if released != 0 {
				t.Fatalf("release ran before done()")
			}
			r.done()
		}
		if released != 1 {
			t.Fatalf("doneFirst=%v: release ran %d times, want 1", doneFirst, released)
		}
	}
}

func TestSharedReleaseNilCollapses(t *testing.T) {
	r := newSharedRelease(nil)
	if r != nil {
		t.Fatal("nil release must collapse to a nil sharedRelease")
	}
	if cb := r.acquire(); cb != nil {
		t.Fatal("acquire on the nil sharedRelease must return nil")
	}
	r.done() // must not panic
}

func TestSharedReleaseDoublePutPanics(t *testing.T) {
	r := newSharedRelease(func() {})
	cb := r.acquire()
	r.done()
	cb()

	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("second invocation of an acquired callback must panic")
		}
		msg, ok := v.(string)
		if !ok || !strings.Contains(msg, "invoked twice") {
			t.Fatalf("panic value %v, want the double-release message", v)
		}
	}()
	cb()
}

// TestRelaySpliceZeroAllocUnderRace pins the relay splice hot path —
// writing a fresh piggyback snapshot into a raw inbound frame held in a
// pooled buffer — at 0 allocs/op, in a form that stays valid under
// -race. The encode pool round-trip is deliberately outside the measured
// region: sync.Pool drops Puts at random when the race detector is on,
// and a dropped Put would charge the next miss's allocation to the
// loop. What the loop measures is the steady-state per-relay work once
// the pool is warm, which is exactly what relayDataFrame does per frame
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
