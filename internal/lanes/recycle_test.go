package lanes

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"adaptivecast/internal/raceflag"
	"adaptivecast/internal/topology"
	"adaptivecast/internal/transport"
)

// TestFlushEntryPointKeepsTheCounts: a data flush of one frame leaves
// through SendN, a flush of several through SendFrames, and Flushes,
// CoalescedFlushes, CoalescedFrames, Drops and Pending read what they
// read when every data flush was a SendFrames.
func TestFlushEntryPointKeepsTheCounts(t *testing.T) {
	tr := &recTransport{entered: make(chan struct{}, 16), gate: make(chan struct{})}
	s := New(tr, Config{QueueDepth: 4})
	defer func() { tr.open(); _ = s.Close() }()

	enqueue := func(ln Lane, b byte, copies int) {
		t.Helper()
		if err := s.Enqueue(1, ln, frame(b), copies, nil); err != nil {
			t.Fatal(err)
		}
	}
	enqueue(Data, 0xD0, 3)
	<-tr.entered // the drain is blocked inside the first, single-frame flush
	for b := byte(0xD1); b <= 0xD5; b++ {
		enqueue(Data, b, 2) // the fifth is shed at QueueDepth 4
	}
	enqueue(Control, 0xC0, 1)
	if got := s.Pending(); got != 6 {
		t.Fatalf("Pending = %d with one frame in flight and five queued, want 6", got)
	}
	tr.open()
	waitIdle(t, s)

	flushes := tr.snapshot()
	if len(flushes) != 3 {
		t.Fatalf("got %d flushes, want data, control, coalesced data: %+v", len(flushes), flushes)
	}
	for i, want := range []struct {
		first  byte
		frames int
		multi  bool
	}{{0xD0, 1, false}, {0xC0, 1, false}, {0xD1, 4, true}} {
		f := flushes[i]
		if f.frames[0][0] != want.first || len(f.frames) != want.frames || f.multi != want.multi {
			t.Errorf("flush %d = first %#x, %d frames, multi %v; want %#x, %d, %v",
				i, f.frames[0][0], len(f.frames), f.multi, want.first, want.frames, want.multi)
		}
	}
	if flushes[0].copies[0] != 3 {
		t.Errorf("single-frame flush carried %d copies, want 3", flushes[0].copies[0])
	}
	want := Stats{Drops: Drops{Data: 1}, Flushes: 3, CoalescedFlushes: 1, CoalescedFrames: 4}
	if got := s.Stats(); got != want {
		t.Errorf("Stats = %+v, want %+v", got, want)
	}
}

// TestRecycledQueueHoldsNothing cycles the queues' backing arrays through
// many flushes of every shape and checks the two things reuse could
// break: every release callback runs exactly once (a second run is the
// double-put sharedRelease panics on), and once flushed, no slot of any
// array the peer keeps still references a frame or a callback.
func TestRecycledQueueHoldsNothing(t *testing.T) {
	tr := &recTransport{entered: make(chan struct{}, 64), gate: make(chan struct{})}
	s := New(tr, Config{QueueDepth: 64})

	var released [12 * 7]atomic.Int32
	next := 0
	enqueue := func(ln Lane) {
		t.Helper()
		slot := &released[next]
		next++
		if err := s.Enqueue(1, ln, frame(byte(next)), 1+next%3, func() { slot.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	enqueue(Data)
	<-tr.entered // hold the drain so the first rounds pile up and coalesce
	for round := 0; round < 12; round++ {
		if round == 1 {
			tr.open()
		}
		enqueue(Control)
		for i := 0; i < round%4; i++ {
			enqueue(Data)
		}
		if round > 0 {
			waitIdle(t, s)
		}
	}
	if err := s.Close(); err != nil { // also orders the drain's writes before the reads below
		t.Fatal(err)
	}
	for i := 0; i < next; i++ {
		if got := released[i].Load(); got != 1 {
			t.Errorf("release of frame %d ran %d times, want exactly once", i, got)
		}
	}
	p := s.peers[1]
	kept := 0
	for ln := Lane(0); ln < numLanes; ln++ {
		for _, arr := range [][]item{p.q[ln], p.spare[ln]} {
			arr = arr[:cap(arr)]
			kept += len(arr)
			for i, it := range arr {
				if it.frame != nil || it.release != nil {
					t.Errorf("%v lane: slot %d of a kept array still holds a flushed item", ln, i)
				}
			}
		}
	}
	if kept == 0 {
		t.Error("the peer kept no backing array: nothing was recycled, the test checked nothing")
	}
	for i, e := range p.batch[:cap(p.batch)] {
		if e.Frame != nil {
			t.Errorf("slot %d of the reused transport batch still holds a frame", i)
		}
	}
}

// sinkTransport accepts every flush and does nothing.
type sinkTransport struct{}

func (sinkTransport) Local() topology.NodeID                                   { return 0 }
func (sinkTransport) SetHandler(transport.Handler)                             {}
func (sinkTransport) Close() error                                             { return nil }
func (sinkTransport) Send(topology.NodeID, []byte) error                       { return nil }
func (sinkTransport) SendN(topology.NodeID, []byte, int) error                 { return nil }
func (sinkTransport) SendFrames(topology.NodeID, []transport.FrameBatch) error { return nil }

// steadyFlush is one period's worth of traffic to one peer: a heartbeat
// and a burst of data frames that may or may not coalesce.
func steadyFlush(tb testing.TB, s *Scheduler, f []byte, release func()) {
	if err := s.Enqueue(1, Control, f, 1, release); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Enqueue(1, Data, f, 2, release); err != nil {
			tb.Fatal(err)
		}
	}
	if !s.WaitIdle(5 * time.Second) {
		tb.Fatal("scheduler did not go idle")
	}
}

// TestAllocsEnqueueFlush pins the lanes' share of a broadcast: once a
// peer's queues have been through a flush, Enqueue → flush allocates
// nothing, whichever transport entry point the flush takes.
func TestAllocsEnqueueFlush(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation pins do not hold under the race detector")
	}
	s := New(sinkTransport{}, Config{})
	defer func() { _ = s.Close() }()
	f, release := frame(0xD0), func() {}
	for i := 0; i < 4; i++ {
		steadyFlush(t, s, f, release)
	}
	if got := testing.AllocsPerRun(200, func() { steadyFlush(t, s, f, release) }); got != 0 {
		t.Fatalf("steady-state Enqueue → flush allocated %.2f times per round of 4 frames, want 0", got)
	}
}

// BenchmarkEnqueueFlush is one frame through an idle peer's data lane
// onto a transport that costs nothing: the scheduler's own enqueue,
// wake-up and flush.
func BenchmarkEnqueueFlush(b *testing.B) {
	s := New(sinkTransport{}, Config{})
	defer func() { _ = s.Close() }()
	f := frame(0xD0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := s.Enqueue(1, Data, f, 2, nil); err != nil {
			b.Fatal(err)
		}
		for s.Pending() > 0 {
			runtime.Gosched()
		}
	}
}

// TestBacklogArrayIsNotKept: a queue that grew to hold a backlog is
// flushed and let go; only steady-state-sized arrays stay with the peer.
func TestBacklogArrayIsNotKept(t *testing.T) {
	tr := &recTransport{entered: make(chan struct{}, 8), gate: make(chan struct{})}
	s := New(tr, Config{})
	if err := s.Enqueue(1, Data, frame(0), 1, nil); err != nil {
		t.Fatal(err)
	}
	<-tr.entered
	for i := 0; i < 5*keepCap; i++ {
		if err := s.Enqueue(1, Data, frame(byte(i)), 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	tr.open()
	waitIdle(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	p := s.peers[1]
	if got := max(cap(p.q[Data]), cap(p.spare[Data]), cap(p.batch)); got > keepCap {
		t.Fatalf("the peer kept an array of %d slots after a backlog, want at most %d", got, keepCap)
	}
	if got := s.Stats(); got.Flushes != 2 || got.CoalescedFrames != 5*keepCap {
		t.Fatalf("Stats = %+v, want the backlog flushed as one coalesced batch", got)
	}
}
