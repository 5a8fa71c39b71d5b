package transport

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaptivecast/internal/raceflag"
	"adaptivecast/internal/topology"
)

// tcpPair is a server transport with handler h and one client that can
// reach it as peer 1.
func tcpPair(t *testing.T, h Handler) (server, client *TCP) {
	t.Helper()
	server, err := NewTCP(1, "127.0.0.1:0", nil, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	server.SetHandler(h)
	client, err = NewTCP(0, "127.0.0.1:0", map[topology.NodeID]string{1: server.Addr().String()}, TCPOptions{})
	if err != nil {
		_ = server.Close()
		t.Fatal(err)
	}
	return server, client
}

// TestTCPHandlerOwnsFrame: TCP hands the handler a buffer of its own per
// frame — single sends and coalesced SendFrames batches alike, each batch
// entry once whatever its copy count — so a handler that keeps every
// frame finds each still holding its bytes once all of them have arrived.
func TestTCPHandlerOwnsFrame(t *testing.T) {
	const singles, batches, total = 100, 50, 300
	var mu sync.Mutex
	var kept [][]byte
	all := make(chan struct{})
	server, client := tcpPair(t, func(_ topology.NodeID, frame []byte) {
		mu.Lock()
		defer mu.Unlock()
		kept = append(kept, frame)
		if len(kept) == total {
			close(all)
		}
	})
	defer func() { _ = server.Close() }()
	defer func() { _ = client.Close() }()
	if !server.HandlerOwnsFrame() {
		t.Fatal("TCP does not declare that the handler owns its frames")
	}

	frame := func(i int) []byte {
		return []byte(fmt.Sprintf("frame %03d %s", i, bytes.Repeat([]byte{byte(i)}, i%37)))
	}
	var want [][]byte
	for i := 0; i < singles; i++ {
		f := frame(i)
		want = append(want, f)
		if err := client.Send(1, f); err != nil {
			t.Fatal(err)
		}
	}
	for b, i := 0, singles; b < batches; b++ {
		batch := make([]FrameBatch, 4)
		for e := range batch {
			batch[e] = FrameBatch{Frame: frame(i), Copies: 2}
			want = append(want, batch[e].Frame)
			i++
		}
		if _, err := SendFrames(client, 1, batch); err != nil {
			t.Fatal(err)
		}
	}
	if len(want) != total {
		t.Fatalf("the test sends %d frames, want %d", len(want), total)
	}
	select {
	case <-all:
	case <-time.After(5 * time.Second):
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("%d of %d frames arrived", len(kept), total)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, got := range kept {
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("kept frame %d now reads %q, want %q", i, got, want[i])
		}
	}
}

// TestTCPHandlerNeverRunsConcurrently: three clients send at once, so
// three readers have frames; the handler is never entered while another
// call is running, every frame arrives and each client's arrive in order.
func TestTCPHandlerNeverRunsConcurrently(t *testing.T) {
	const clients, each = 3, 200
	var inFlight atomic.Int32
	col := newCollector()
	server, err := NewTCP(1, "127.0.0.1:0", nil, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = server.Close() }()
	server.SetHandler(func(from topology.NodeID, frame []byte) {
		if n := inFlight.Add(1); n != 1 {
			t.Errorf("handler entered with %d calls running", n-1)
		}
		runtime.Gosched() // widen the window another reader could enter by
		col.handler(from, frame)
		inFlight.Add(-1)
	})

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		id := topology.NodeID(10 + c)
		client, err := NewTCP(id, "127.0.0.1:0", map[topology.NodeID]string{1: server.Addr().String()}, TCPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = client.Close() }()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := client.Send(1, []byte(fmt.Sprintf("%d", i))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	col.wait(t, clients*each)
	frames, froms := col.snapshot()
	next := map[topology.NodeID]int{}
	for i, fr := range frames {
		if want := fmt.Sprintf("%d", next[froms[i]]); fr != want {
			t.Fatalf("client %d: frame %q arrived where %q was next", froms[i], fr, want)
		}
		next[froms[i]]++
	}
	for c := 0; c < clients; c++ {
		if got := next[topology.NodeID(10+c)]; got != each {
			t.Errorf("client %d: %d frames arrived, want %d", 10+c, got, each)
		}
	}
}

// TestTCPHeldHandlerLosesNothing: while the handler is held, the frames
// behind it wait in the connection; once it is released every frame
// arrives, in order.
func TestTCPHeldHandlerLosesNothing(t *testing.T) {
	const frames = 50
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	col := newCollector()
	server, client := tcpPair(t, func(from topology.NodeID, frame []byte) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-gate
		col.handler(from, frame)
	})
	defer func() { _ = server.Close() }()
	defer func() { _ = client.Close() }()

	for i := 0; i < frames; i++ {
		if err := client.Send(1, []byte(fmt.Sprintf("f%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	<-entered // the first frame's call is held; every send has returned
	close(gate)
	col.wait(t, frames)
	got, _ := col.snapshot()
	for i, fr := range got {
		if fr != fmt.Sprintf("f%d", i) {
			t.Fatalf("frame %d = %q: order broken", i, fr)
		}
	}
}

// TestTCPCloseWithHandlerHeld: Close, begun while a handler call is held
// and frames wait behind it, returns once that call does, and starts no
// call for the frames still waiting.
func TestTCPCloseWithHandlerHeld(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	var calls atomic.Int32
	server, client := tcpPair(t, func(topology.NodeID, []byte) {
		calls.Add(1)
		select {
		case entered <- struct{}{}:
		default:
		}
		<-gate
	})
	defer func() { _ = client.Close() }()
	for i := 0; i < 10; i++ {
		if err := client.Send(1, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	<-entered
	closed := make(chan error, 1)
	go func() { closed <- server.Close() }()
	<-server.stop // release the handler only once Close has begun
	close(gate)
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close hangs after the held handler returned")
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("the handler ran %d times, want only the call Close found running", n)
	}
}

// TestAllocsTCPFlush pins a warm TCP flush at zero: SendN (through its
// one-entry batch, which stays on the stack) and SendFrames lay their
// length-prefixed frames out in a pooled write buffer. The peer is a bare
// socket reading into one buffer, so nothing on the receiving side
// allocates either.
func TestAllocsTCPFlush(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation pins do not hold under the race detector")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var received atomic.Int64
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer func() { _ = c.Close() }()
		buf := make([]byte, 64<<10)
		for {
			n, err := c.Read(buf)
			received.Add(int64(n))
			if err != nil {
				return
			}
		}
	}()
	client, err := NewTCP(0, "127.0.0.1:0", map[topology.NodeID]string{1: ln.Addr().String()}, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	frame := bytes.Repeat([]byte{7}, 300)
	batch := []FrameBatch{{Frame: frame, Copies: 2}, {Frame: frame[:100], Copies: 1}}
	sendN := func() {
		if err := client.SendN(1, frame, 3); err != nil {
			t.Fatal(err)
		}
	}
	sendFrames := func() {
		if err := client.SendFrames(1, batch); err != nil {
			t.Fatal(err)
		}
	}
	sendN() // dial, hello and buffer warm
	sendFrames()
	const runs = 200
	if got := testing.AllocsPerRun(runs, sendN); got != 0 {
		t.Errorf("a warm SendN allocated %.2f times, want 0", got)
	}
	if got := testing.AllocsPerRun(runs, sendFrames); got != 0 {
		t.Errorf("a warm SendFrames allocated %.2f times, want 0", got)
	}
	const flushes = 2 * (runs + 2)
	perPair := (4 + 300) + (4 + 300) + (4 + 100) // each entry once, whatever its copies
	st := client.Stats()
	if st.Flushes != flushes || st.FramesSent != 3*flushes/2 || st.BytesSent != perPair*flushes/2 {
		t.Errorf("stats %+v after %d flushes of 3 frames a pair, want %d bytes", st, flushes, perPair*flushes/2)
	}
	_ = client.Close()
	<-drained
	_ = ln.Close()
	if got := received.Load(); got != 12+int64(st.BytesSent) {
		t.Errorf("the peer read %d bytes, want the 12-byte hello and the %d flushed", got, st.BytesSent)
	}
}

// cutConn passes the hello and then only the first budget bytes written
// to it: the write that reaches the cut closes the connection, so the
// peer reads exactly that prefix of the stream, then EOF — a connection
// that breaks mid-flush.
type cutConn struct {
	net.Conn
	helloSent bool
	budget    int
}

func (c *cutConn) Write(p []byte) (int, error) {
	if !c.helloSent {
		c.helloSent = true
		return c.Conn.Write(p)
	}
	if len(p) <= c.budget {
		c.budget -= len(p)
		return c.Conn.Write(p)
	}
	n, _ := c.Conn.Write(p[:c.budget])
	c.budget = 0
	_ = c.Conn.Close()
	return n, net.ErrClosed
}

// TestTCPOneCopyLosesNothing: TCP puts a batch entry on the wire once
// however many copies it carries, and that loses nothing. A connection
// that breaks delivers a byte prefix of the stream; for every cut point
// B, the distinct frames the peer handles include every frame the n-copy
// layout — each entry's Copies length-prefixed copies back to back —
// would have completed within B bytes.
func TestTCPOneCopyLosesNothing(t *testing.T) {
	batch := []FrameBatch{
		{Frame: []byte("alpha"), Copies: 2},
		{Frame: []byte("bravo!"), Copies: 1},
		{Frame: []byte("charlie"), Copies: 3},
	}
	// ends[i] is the byte at which the n-copy layout's i-th copy ends.
	type copyEnd struct {
		at    int
		frame string
	}
	var ends []copyEnd
	nCopyLen := 0
	for _, e := range batch {
		for range e.Copies {
			nCopyLen += 4 + len(e.Frame)
			ends = append(ends, copyEnd{nCopyLen, string(e.Frame)})
		}
	}

	var mu sync.Mutex
	handled := map[topology.NodeID]map[string]bool{}
	changed := make(chan struct{}, 1)
	server, err := NewTCP(1, "127.0.0.1:0", nil, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = server.Close() }()
	server.SetHandler(func(from topology.NodeID, frame []byte) {
		if !slices.ContainsFunc(batch, func(e FrameBatch) bool { return bytes.Equal(e.Frame, frame) }) {
			t.Errorf("client %d: the peer handled %q, which is no frame of the batch", from, frame)
		}
		mu.Lock()
		if handled[from] == nil {
			handled[from] = map[string]bool{}
		}
		handled[from][string(frame)] = true
		mu.Unlock()
		select {
		case changed <- struct{}{}:
		default:
		}
	})

	for cut := 0; cut <= nCopyLen; cut++ {
		from := topology.NodeID(100 + cut) // one client per cut point
		dial := func(network, address string, timeout time.Duration) (net.Conn, error) {
			c, err := net.DialTimeout(network, address, timeout)
			if err != nil {
				return nil, err
			}
			return &cutConn{Conn: c, budget: cut}, nil
		}
		client, err := NewTCP(from, "127.0.0.1:0", map[topology.NodeID]string{1: server.Addr().String()}, TCPOptions{Dial: dial})
		if err != nil {
			t.Fatal(err)
		}
		_ = client.SendFrames(1, batch) // fails when the cut falls inside the flush
		_ = client.Close()

		var want []string
		for _, e := range ends {
			if e.at <= cut {
				want = append(want, e.frame)
			}
		}
		covered := func() bool {
			mu.Lock()
			defer mu.Unlock()
			for _, f := range want {
				if !handled[from][f] {
					return false
				}
			}
			return true
		}
		deadline := time.After(5 * time.Second)
		for !covered() {
			select {
			case <-changed:
			case <-deadline:
				mu.Lock()
				defer mu.Unlock()
				t.Fatalf("cut after %d bytes: the peer handled %v, but %d copies back to back would have delivered %q",
					cut, handled[from], len(ends), want)
			}
		}
	}
}
