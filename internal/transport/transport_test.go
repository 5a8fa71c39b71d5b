package transport

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"adaptivecast/internal/topology"
)

// collector gathers frames thread-safely.
type collector struct {
	mu     sync.Mutex
	frames []string
	froms  []topology.NodeID
	notify chan struct{}
}

func newCollector() *collector {
	return &collector{notify: make(chan struct{}, 1024)}
}

func (c *collector) handler(from topology.NodeID, frame []byte) {
	c.mu.Lock()
	c.frames = append(c.frames, string(frame))
	c.froms = append(c.froms, from)
	c.mu.Unlock()
	c.notify <- struct{}{}
}

func (c *collector) wait(t *testing.T, n int) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case <-c.notify:
		case <-deadline:
			t.Fatalf("timed out waiting for %d frames (got %d)", n, i)
		}
	}
}

func (c *collector) snapshot() ([]string, []topology.NodeID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.frames...), append([]topology.NodeID(nil), c.froms...)
}

func TestFabricDelivery(t *testing.T) {
	f := NewFabric(FabricOptions{})
	defer func() {
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	}()
	a := f.Endpoint(0)
	b := f.Endpoint(1)
	col := newCollector()
	b.SetHandler(col.handler)

	if a.Local() != 0 || b.Local() != 1 {
		t.Fatal("Local() wrong")
	}
	for i := 0; i < 5; i++ {
		if err := a.Send(1, []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	col.wait(t, 5)
	frames, froms := col.snapshot()
	for i, fr := range frames {
		if fr != fmt.Sprintf("m%d", i) {
			t.Errorf("frame %d = %q (ordering broken?)", i, fr)
		}
		if froms[i] != 0 {
			t.Errorf("from = %d, want 0", froms[i])
		}
	}
	if s := f.Stats(); s.Sent != 5 || s.Lost != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestFabricSenderBufferReuse(t *testing.T) {
	f := NewFabric(FabricOptions{})
	defer func() { _ = f.Close() }()
	a := f.Endpoint(0)
	b := f.Endpoint(1)
	col := newCollector()
	b.SetHandler(col.handler)

	buf := []byte("first")
	if err := a.Send(1, buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "XXXXX") // sender reuses its buffer immediately
	col.wait(t, 1)
	frames, _ := col.snapshot()
	if frames[0] != "first" {
		t.Errorf("frame corrupted by sender buffer reuse: %q", frames[0])
	}
}

func TestFabricUnknownPeer(t *testing.T) {
	f := NewFabric(FabricOptions{})
	defer func() { _ = f.Close() }()
	a := f.Endpoint(0)
	if err := a.Send(9, []byte("x")); err == nil {
		t.Error("send to unknown peer should fail")
	}
}

func TestFabricLossInjection(t *testing.T) {
	f := NewFabric(FabricOptions{Seed: 42})
	defer func() { _ = f.Close() }()
	a := f.Endpoint(0)
	b := f.Endpoint(1)
	col := newCollector()
	b.SetHandler(col.handler)

	if err := f.SetLoss(0, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{1.5, -0.1, math.NaN()} {
		if err := f.SetLoss(0, 1, bad); err == nil {
			t.Errorf("SetLoss accepted loss %v", bad)
		}
	}
	const total = 2000
	for i := 0; i < total; i++ {
		if err := a.Send(1, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	s := f.Stats()
	if s.Sent != total {
		t.Fatalf("sent = %d", s.Sent)
	}
	frac := float64(s.Lost) / total
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("loss fraction = %v, want ≈0.5", frac)
	}
	col.wait(t, total-s.Lost)
}

func TestFabricCloseStopsTraffic(t *testing.T) {
	f := NewFabric(FabricOptions{})
	a := f.Endpoint(0)
	f.Endpoint(1)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(1, []byte("x")); err == nil {
		t.Error("send after close should fail")
	}
	// Idempotent.
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFabricLatency(t *testing.T) {
	f := NewFabric(FabricOptions{Latency: 30 * time.Millisecond})
	defer func() { _ = f.Close() }()
	a := f.Endpoint(0)
	b := f.Endpoint(1)
	col := newCollector()
	b.SetHandler(col.handler)
	start := time.Now()
	if err := a.Send(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	col.wait(t, 1)
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Errorf("delivered after %v, want >= ~30ms", elapsed)
	}
	// A coalesced flush rides the same delayed path, as one arrival.
	start = time.Now()
	if _, err := SendFrames(a, 1, []FrameBatch{{Frame: []byte("y"), Copies: 1}, {Frame: []byte("z"), Copies: 2}}); err != nil {
		t.Fatal(err)
	}
	col.wait(t, 3)
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Errorf("flush delivered after %v, want >= ~30ms", elapsed)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	serverCol := newCollector()
	server, err := NewTCP(1, "127.0.0.1:0", nil, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = server.Close() }()
	server.SetHandler(serverCol.handler)

	client, err := NewTCP(0, "127.0.0.1:0", map[topology.NodeID]string{
		1: server.Addr().String(),
	}, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()

	for i := 0; i < 10; i++ {
		if err := client.Send(1, []byte(fmt.Sprintf("frame-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	serverCol.wait(t, 10)
	frames, froms := serverCol.snapshot()
	for i, fr := range frames {
		if fr != fmt.Sprintf("frame-%d", i) {
			t.Errorf("frame %d = %q", i, fr)
		}
		if froms[i] != 0 {
			t.Errorf("from = %d, want 0", froms[i])
		}
	}
}

func TestTCPBidirectional(t *testing.T) {
	aCol, bCol := newCollector(), newCollector()
	a, err := NewTCP(0, "127.0.0.1:0", nil, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	a.SetHandler(aCol.handler)

	b, err := NewTCP(1, "127.0.0.1:0", nil, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()
	b.SetHandler(bCol.handler)

	a.AddPeer(1, b.Addr().String())
	b.AddPeer(0, a.Addr().String())

	if err := a.Send(1, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	bCol.wait(t, 1)
	if err := b.Send(0, []byte("pong")); err != nil {
		t.Fatal(err)
	}
	aCol.wait(t, 1)
	aFrames, _ := aCol.snapshot()
	bFrames, _ := bCol.snapshot()
	if bFrames[0] != "ping" || aFrames[0] != "pong" {
		t.Errorf("got %q / %q", bFrames[0], aFrames[0])
	}
}

func TestTCPUnknownPeer(t *testing.T) {
	a, err := NewTCP(0, "127.0.0.1:0", nil, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	if err := a.Send(7, []byte("x")); err == nil {
		t.Error("unknown peer should fail")
	}
}

func TestTCPSendAfterClose(t *testing.T) {
	a, err := NewTCP(0, "127.0.0.1:0", nil, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTCP(1, "127.0.0.1:0", map[topology.NodeID]string{0: a.Addr().String()}, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(0, []byte("x")); err == nil {
		t.Error("send after close should fail")
	}
	if err := b.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	_ = a.Close()
}

func TestTCPLargeFrame(t *testing.T) {
	col := newCollector()
	server, err := NewTCP(1, "127.0.0.1:0", nil, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = server.Close() }()
	server.SetHandler(col.handler)
	client, err := NewTCP(0, "127.0.0.1:0", map[topology.NodeID]string{1: server.Addr().String()}, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()

	big := make([]byte, 1<<20) // 1 MiB, heartbeat-snapshot scale
	for i := range big {
		big[i] = byte(i)
	}
	if err := client.Send(1, big); err != nil {
		t.Fatal(err)
	}
	col.wait(t, 1)
	frames, _ := col.snapshot()
	if len(frames[0]) != len(big) {
		t.Fatalf("size = %d, want %d", len(frames[0]), len(big))
	}
	if frames[0] != string(big) {
		t.Error("large frame corrupted")
	}
}

// sendOnly is a minimal Transport without the BatchSender fast path, for
// exercising the SendN shim.
type sendOnly struct {
	sent      int
	fail      bool
	failAfter int // when > 0, Send fails once this many copies succeeded
}

func (s *sendOnly) Local() topology.NodeID { return 0 }
func (s *sendOnly) SetHandler(Handler)     {}
func (s *sendOnly) Close() error           { return nil }
func (s *sendOnly) Send(topology.NodeID, []byte) error {
	if s.fail || (s.failAfter > 0 && s.sent >= s.failAfter) {
		return fmt.Errorf("boom")
	}
	s.sent++
	return nil
}

func TestSendNShimLoopsOverSend(t *testing.T) {
	s := &sendOnly{}
	sent, err := SendN(s, 1, []byte("x"), 5)
	if err != nil || sent != 5 {
		t.Fatalf("shim: sent=%d err=%v, want 5 copies", sent, err)
	}
	if s.sent != 5 {
		t.Fatalf("shim sent %d copies, want 5", s.sent)
	}
	if sent, err := SendN(s, 1, []byte("x"), 0); err != nil || sent != 0 || s.sent != 5 {
		t.Fatal("n <= 0 must be a no-op")
	}
	if sent, err := SendN(&sendOnly{fail: true}, 1, []byte("x"), 3); err == nil || sent != 0 {
		t.Fatalf("shim must surface Send errors: sent=%d err=%v", sent, err)
	}
}

// TestSendNShimCountsPartialSuccess pins the best-effort accounting the
// broadcast datapath relies on: a mid-burst failure must not erase the
// copies that did go out.
func TestSendNShimCountsPartialSuccess(t *testing.T) {
	s := &sendOnly{failAfter: 2}
	sent, err := SendN(s, 1, []byte("x"), 5)
	if err == nil {
		t.Fatal("partial failure must surface the error")
	}
	if sent != 2 {
		t.Fatalf("sent = %d, want the 2 copies that succeeded", sent)
	}
}

func TestFabricSendNDeliversAllCopies(t *testing.T) {
	f := NewFabric(FabricOptions{})
	defer func() { _ = f.Close() }()
	a := f.Endpoint(0)
	b := f.Endpoint(1)
	col := newCollector()
	b.SetHandler(col.handler)

	if sent, err := SendN(a, 1, []byte("burst"), 7); err != nil || sent != 7 {
		t.Fatalf("sent=%d err=%v", sent, err)
	}
	col.wait(t, 7)
	frames, froms := col.snapshot()
	if len(frames) != 7 {
		t.Fatalf("delivered %d copies, want 7", len(frames))
	}
	for i := range frames {
		if frames[i] != "burst" || froms[i] != 0 {
			t.Fatalf("copy %d corrupted: %q from %d", i, frames[i], froms[i])
		}
	}
	if s := f.Stats(); s.Sent != 7 || s.Lost != 0 {
		t.Errorf("stats = %+v", s)
	}
}

// TestFabricSendNSamplesLossPerCopy holds the protocol's reliability
// model: a batch of n copies must lose each copy independently, not all
// or nothing.
func TestFabricSendNSamplesLossPerCopy(t *testing.T) {
	f := NewFabric(FabricOptions{Seed: 7})
	defer func() { _ = f.Close() }()
	a := f.Endpoint(0)
	b := f.Endpoint(1)
	col := newCollector()
	b.SetHandler(col.handler)
	if err := f.SetLoss(0, 1, 0.5); err != nil {
		t.Fatal(err)
	}

	const batches, per = 400, 5
	for i := 0; i < batches; i++ {
		if _, err := SendN(a, 1, []byte("x"), per); err != nil {
			t.Fatal(err)
		}
	}
	s := f.Stats()
	if s.Sent != batches*per {
		t.Fatalf("sent = %d, want %d", s.Sent, batches*per)
	}
	frac := float64(s.Lost) / float64(s.Sent)
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("loss fraction = %v, want ≈0.5 (per-copy sampling)", frac)
	}
	col.wait(t, s.Sent-s.Lost)
}

// TestTCPSendNSingleFlush is the batching acceptance hook: n copies share
// a fate on one stream, so they cost one socket flush carrying the frame
// once, and the peer's handler runs once. The sentinel sent behind the
// burst proves it: the stream is in order, so a second copy would have
// reached the handler before the sentinel did.
func TestTCPSendNSingleFlush(t *testing.T) {
	col := newCollector()
	server, err := NewTCP(1, "127.0.0.1:0", nil, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = server.Close() }()
	server.SetHandler(col.handler)
	client, err := NewTCP(0, "127.0.0.1:0", map[topology.NodeID]string{1: server.Addr().String()}, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()

	const copies = 9
	frame := []byte("replicated frame")
	if sent, err := SendN(client, 1, frame, copies); err != nil || sent != copies {
		t.Fatalf("sent=%d err=%v", sent, err)
	}
	st := client.Stats()
	if st.Flushes != 1 {
		t.Errorf("SendN(%d) cost %d flushes, want exactly 1", copies, st.Flushes)
	}
	if st.FramesSent != 1 {
		t.Errorf("FramesSent = %d, want 1", st.FramesSent)
	}
	if want := 4 + len(frame); st.BytesSent != want {
		t.Errorf("BytesSent = %d, want %d", st.BytesSent, want)
	}

	// A plain Send is the n=1 case of the same path: one more flush.
	const sentinel = "sentinel"
	if err := client.Send(1, []byte(sentinel)); err != nil {
		t.Fatal(err)
	}
	if st = client.Stats(); st.Flushes != 2 || st.FramesSent != 2 {
		t.Errorf("after Send: stats = %+v", st)
	}
	col.wait(t, 2)
	frames, _ := col.snapshot()
	if want := []string{string(frame), sentinel}; !slices.Equal(frames, want) {
		t.Fatalf("the handler saw %q, want %q", frames, want)
	}
}

// TestSendFramesShimFallsBackToSendN: the helper degrades to a per-entry
// SendN loop on transports without the multi-frame fast path, skipping
// non-positive copy counts and keeping exact accounting.
func TestSendFramesShimFallsBackToSendN(t *testing.T) {
	s := &sendOnly{}
	batch := []FrameBatch{
		{Frame: []byte("a"), Copies: 2},
		{Frame: []byte("b"), Copies: 0}, // skipped
		{Frame: []byte("c"), Copies: 3},
	}
	sent, err := SendFrames(s, 1, batch)
	if err != nil || sent != 5 {
		t.Fatalf("shim: sent=%d err=%v, want 5", sent, err)
	}
	if s.sent != 5 {
		t.Fatalf("transport saw %d sends, want 5", s.sent)
	}
	if sent, err := SendFrames(s, 1, []FrameBatch{{Frame: []byte("x"), Copies: 0}}); err != nil || sent != 0 {
		t.Fatal("an all-zero batch must be a no-op")
	}
}

// TestFabricSendFramesDeliversBatch: the fabric's multi-frame fast path
// delivers every copy of every distinct frame, in batch order, and the
// sender gets its buffers back (the fabric copies before enqueueing).
func TestFabricSendFramesDeliversBatch(t *testing.T) {
	f := NewFabric(FabricOptions{})
	defer func() { _ = f.Close() }()
	a := f.Endpoint(0)
	b := f.Endpoint(1)
	col := newCollector()
	b.SetHandler(col.handler)

	frameA := []byte("alpha")
	frameB := []byte("beta")
	batch := []FrameBatch{
		{Frame: frameA, Copies: 2},
		{Frame: frameB, Copies: 0}, // skipped
		{Frame: frameB, Copies: 1},
	}
	if sent, err := SendFrames(a, 1, batch); err != nil || sent != 3 {
		t.Fatalf("sent=%d err=%v, want 3", sent, err)
	}
	// Ownership: the call only borrowed the buffers.
	frameA[0] = 'X'
	frameB[0] = 'X'

	col.wait(t, 3)
	frames, _ := col.snapshot()
	want := []string{"alpha", "alpha", "beta"}
	for i, w := range want {
		if frames[i] != w {
			t.Errorf("delivery %d = %q, want %q", i, frames[i], w)
		}
	}
	if s := f.Stats(); s.Sent != 3 || s.Lost != 0 {
		t.Errorf("stats = %+v", s)
	}
}

// TestFabricSendFramesSamplesLossPerCopy: a coalesced flush must keep
// the protocol's loss model — every copy of every frame sampled
// independently, not the flush as a unit.
func TestFabricSendFramesSamplesLossPerCopy(t *testing.T) {
	f := NewFabric(FabricOptions{Seed: 13})
	defer func() { _ = f.Close() }()
	a := f.Endpoint(0)
	b := f.Endpoint(1)
	col := newCollector()
	b.SetHandler(col.handler)
	if err := f.SetLoss(0, 1, 0.5); err != nil {
		t.Fatal(err)
	}

	const flushes, per = 400, 4
	for i := 0; i < flushes; i++ {
		batch := []FrameBatch{
			{Frame: []byte("one"), Copies: per / 2},
			{Frame: []byte("two"), Copies: per / 2},
		}
		if _, err := SendFrames(a, 1, batch); err != nil {
			t.Fatal(err)
		}
	}
	s := f.Stats()
	if s.Sent != flushes*per {
		t.Fatalf("sent = %d, want %d", s.Sent, flushes*per)
	}
	frac := float64(s.Lost) / float64(s.Sent)
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("loss fraction = %v, want ≈0.5 (per-copy sampling)", frac)
	}
	col.wait(t, s.Sent-s.Lost)
}

// TestTCPSendFramesSingleFlush is the coalescing acceptance hook: a
// multi-frame batch reaches the peer as its entries, each once and in
// order, for exactly one socket flush; SendFrames still reports the
// logical copies the batch carried.
func TestTCPSendFramesSingleFlush(t *testing.T) {
	col := newCollector()
	server, err := NewTCP(1, "127.0.0.1:0", nil, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = server.Close() }()
	server.SetHandler(col.handler)
	client, err := NewTCP(0, "127.0.0.1:0", map[topology.NodeID]string{1: server.Addr().String()}, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()

	batch := []FrameBatch{
		{Frame: []byte("first"), Copies: 2},
		{Frame: []byte("second"), Copies: 1},
		{Frame: []byte("third"), Copies: 3},
	}
	total, bytes := 0, 0
	for _, e := range batch {
		total += e.Copies
		bytes += 4 + len(e.Frame)
	}
	if sent, err := SendFrames(client, 1, batch); err != nil || sent != total {
		t.Fatalf("sent=%d err=%v, want %d", sent, err, total)
	}
	st := client.Stats()
	if st.Flushes != 1 {
		t.Errorf("batch cost %d flushes, want exactly 1", st.Flushes)
	}
	if st.FramesSent != len(batch) {
		t.Errorf("FramesSent = %d, want %d", st.FramesSent, len(batch))
	}
	if st.BytesSent != bytes {
		t.Errorf("BytesSent = %d, want %d", st.BytesSent, bytes)
	}

	const sentinel = "sentinel"
	if err := client.Send(1, []byte(sentinel)); err != nil {
		t.Fatal(err)
	}
	col.wait(t, len(batch)+1)
	frames, _ := col.snapshot()
	if want := []string{"first", "second", "third", sentinel}; !slices.Equal(frames, want) {
		t.Errorf("the handler saw %q, want %q", frames, want)
	}
}
