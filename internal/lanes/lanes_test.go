package lanes

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"adaptivecast/internal/topology"
	"adaptivecast/internal/transport"
)

// recTransport records every flush and can block mid-send so tests can
// pile frames up behind a slow peer deterministically.
type recTransport struct {
	mu      sync.Mutex
	flushes []recFlush

	entered chan struct{} // signaled when a send starts (if non-nil)
	gate    chan struct{} // sends block until closed (if non-nil)
	gateO   sync.Once
}

// open unblocks all current and future sends; safe to call repeatedly.
func (r *recTransport) open() {
	r.gateO.Do(func() {
		if r.gate != nil {
			close(r.gate)
		}
	})
}

// recFlush is one transport call: the distinct frames it carried and
// their copy counts.
type recFlush struct {
	to     topology.NodeID
	frames [][]byte
	copies []int
	multi  bool // arrived through SendFrames rather than Send/SendN
}

func (r *recTransport) Local() topology.NodeID       { return 0 }
func (r *recTransport) SetHandler(transport.Handler) {}
func (r *recTransport) Close() error                 { return nil }

func (r *recTransport) Send(to topology.NodeID, frame []byte) error {
	return r.record(to, [][]byte{frame}, []int{1}, false)
}

// SendN implements the BatchSender fast path.
func (r *recTransport) SendN(to topology.NodeID, frame []byte, n int) error {
	return r.record(to, [][]byte{frame}, []int{n}, false)
}

// SendFrames implements the MultiFrameSender fast path.
func (r *recTransport) SendFrames(to topology.NodeID, batch []transport.FrameBatch) error {
	frames := make([][]byte, len(batch))
	copies := make([]int, len(batch))
	for i, e := range batch {
		frames[i] = e.Frame
		copies[i] = e.Copies
	}
	return r.record(to, frames, copies, true)
}

func (r *recTransport) record(to topology.NodeID, frames [][]byte, copies []int, multi bool) error {
	if r.entered != nil {
		r.entered <- struct{}{}
	}
	if r.gate != nil {
		<-r.gate
	}
	cp := make([][]byte, len(frames))
	for i, f := range frames {
		cp[i] = append([]byte(nil), f...)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.flushes = append(r.flushes, recFlush{to: to, frames: cp, copies: copies, multi: multi})
	return nil
}

func (r *recTransport) snapshot() []recFlush {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]recFlush(nil), r.flushes...)
}

func frame(b byte) []byte { return []byte{b} }

// waitIdle fails the test if the scheduler cannot drain in time.
func waitIdle(t *testing.T, s *Scheduler) {
	t.Helper()
	if !s.WaitIdle(5 * time.Second) {
		t.Fatalf("scheduler did not go idle; %d frames still pending", s.Pending())
	}
}

// TestControlPreemptsQueuedData blocks the transport behind one data
// flush, queues more data and then a control frame, and asserts the
// control frame is flushed first once the transport unblocks.
func TestControlPreemptsQueuedData(t *testing.T) {
	tr := &recTransport{entered: make(chan struct{}, 16), gate: make(chan struct{})}
	s := New(tr, Config{QueueDepth: 16})
	defer func() { tr.open(); _ = s.Close() }()

	if err := s.Enqueue(1, Data, frame(0xD0), 1, nil); err != nil {
		t.Fatal(err)
	}
	<-tr.entered // the drain goroutine is now blocked mid-flush

	// Pile up behind it: data first, control last.
	for i := byte(0); i < 3; i++ {
		if err := s.Enqueue(1, Data, frame(0xD1+i), 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Enqueue(1, Control, frame(0xC0), 1, nil); err != nil {
		t.Fatal(err)
	}

	tr.open()
	for i := 0; i < 2; i++ { // blocked flush + control flush
		<-tr.entered
	}
	waitIdle(t, s)

	flushes := tr.snapshot()
	// flushes[0] is the pre-blocked data frame; the control frame must
	// come before the remaining data despite being enqueued after it.
	if len(flushes) < 3 {
		t.Fatalf("expected >= 3 flushes, got %d", len(flushes))
	}
	if got := flushes[1].frames[0][0]; got != 0xC0 {
		t.Fatalf("second flush carried frame %#x, want the control frame 0xC0", got)
	}
}

// TestDataShedAtWatermark fills the data lane past its depth and
// asserts the overflow is shed (and only the overflow), with every
// release called exactly once.
func TestDataShedAtWatermark(t *testing.T) {
	const depth = 4
	tr := &recTransport{entered: make(chan struct{}, 64), gate: make(chan struct{})}
	s := New(tr, Config{QueueDepth: depth})

	var mu sync.Mutex
	released := 0
	release := func() { mu.Lock(); released++; mu.Unlock() }

	if err := s.Enqueue(1, Data, frame(0), 1, release); err != nil {
		t.Fatal(err)
	}
	<-tr.entered // drain blocked; the queue now buffers

	enqueued := 1
	for i := byte(1); i <= depth+1; i++ { // depth fit, the last one shed
		if err := s.Enqueue(1, Data, frame(i), 1, release); err != nil {
			t.Fatal(err)
		}
		enqueued++
	}
	if got := s.Stats().Drops.Data; got != 1 {
		t.Fatalf("Drops.Data = %d, want 1 (only the frame past the watermark)", got)
	}

	tr.open()
	waitIdle(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if released != enqueued {
		t.Fatalf("release ran %d times, want %d (flushed + shed, exactly once each)", released, enqueued)
	}
}

// TestControlNeverShed pushes far more control frames than the queue
// depth through a blocked transport: all are accepted, none dropped.
func TestControlNeverShed(t *testing.T) {
	const depth = 4
	tr := &recTransport{entered: make(chan struct{}, 1024), gate: make(chan struct{})}
	s := New(tr, Config{QueueDepth: depth})

	if err := s.Enqueue(1, Control, frame(0), 1, nil); err != nil {
		t.Fatal(err)
	}
	<-tr.entered
	for i := 0; i < 10*depth; i++ {
		if err := s.Enqueue(1, Control, frame(byte(i)), 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	tr.open()
	waitIdle(t, s)
	st := s.Stats()
	if st.Drops != (Drops{}) {
		t.Fatalf("drops = %+v, want none", st.Drops)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(tr.snapshot()); got != 10*depth+1 {
		t.Fatalf("flushed %d control frames, want %d", got, 10*depth+1)
	}
}

// TestCloseDrainsQueues: Close flushes everything still queued onto the
// transport, and subsequent Enqueues fail with their release run. The
// transport holds the first flush, so the rest of the frames are still
// queued when Close is called.
func TestCloseDrainsQueues(t *testing.T) {
	tr := &recTransport{entered: make(chan struct{}, 16), gate: make(chan struct{})}
	s := New(tr, Config{QueueDepth: 64})

	var mu sync.Mutex
	released := 0
	release := func() { mu.Lock(); released++; mu.Unlock() }

	for i := byte(0); i < 5; i++ {
		if err := s.Enqueue(1, Data, frame(i), 2, release); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			<-tr.entered // the drain is blocked inside the first flush
		}
	}
	if err := s.Enqueue(1, Control, frame(0xC0), 1, release); err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	for !s.isClosed() {
		runtime.Gosched()
	}
	tr.open()
	if err := <-closed; err != nil {
		t.Fatal(err)
	}

	total := 0
	for _, f := range tr.snapshot() {
		total += len(f.frames)
	}
	if total != 6 {
		t.Fatalf("transport saw %d frames after Close, want all 6 queued frames drained", total)
	}
	mu.Lock()
	got := released
	mu.Unlock()
	if got != 6 {
		t.Fatalf("release ran %d times, want 6", got)
	}

	err := s.Enqueue(1, Data, frame(9), 1, release)
	if err != ErrClosed {
		t.Fatalf("Enqueue after Close = %v, want ErrClosed", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if released != 7 {
		t.Fatalf("release after failed Enqueue ran %d times total, want 7 (the rejected frame's buffer must not leak)", released)
	}
}

// TestCopiesRideTheFlush: the logical copy count survives into the
// transport batch untouched.
func TestCopiesRideTheFlush(t *testing.T) {
	tr := &recTransport{}
	s := New(tr, Config{})
	defer func() { _ = s.Close() }()
	if err := s.Enqueue(3, Data, frame(0xAB), 5, nil); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, s)
	flushes := tr.snapshot()
	if len(flushes) != 1 || flushes[0].copies[0] != 5 {
		t.Fatalf("flushes = %+v, want one flush with 5 copies", flushes)
	}
}

// isClosed reports whether Close has begun.
func (s *Scheduler) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}
