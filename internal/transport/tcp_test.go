package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
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

// TestTCPLendsEveryBufferBack: TCP reads each frame into a buffer from
// its lent pool and takes it back whichever way the frame leaves —
// handled, cut short by a peer that closes mid-frame, or read while
// Close begins and never handed to the handler — and takes none for a
// length prefix over the limit. Every frame a handler is handed reads as
// sent, single sends and coalesced batches alike, although the buffers
// are reused.
func TestTCPLendsEveryBufferBack(t *testing.T) {
	// lent waits until server has n buffers out.
	lent := func(server *TCP, n int, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for server.lent.Outstanding() != n {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d buffers lent, want %d", what, server.lent.Outstanding(), n)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	// raw dials server and says hello as peer 9, with no transport of its own.
	raw := func(server *TCP) net.Conn {
		t.Helper()
		c, err := net.Dial("tcp", server.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		hello := binary.BigEndian.AppendUint32(nil, tcpMagic)
		if _, err := c.Write(binary.BigEndian.AppendUint64(hello, 9)); err != nil {
			t.Fatal(err)
		}
		return c
	}

	// Handled: 100 single sends and 50 batches of 4 entries, each entry
	// once whatever its copies.
	const singles, batches, total = 100, 50, 300
	col := newCollector()
	server, client := tcpPair(t, col.handler)
	defer func() { _ = server.Close() }()
	defer func() { _ = client.Close() }()
	frame := func(i int) []byte {
		return []byte(fmt.Sprintf("frame %03d %s", i, bytes.Repeat([]byte{byte(i)}, i%37)))
	}
	var want []string
	for i := 0; i < singles; i++ {
		want = append(want, string(frame(i)))
		if err := client.Send(1, frame(i)); err != nil {
			t.Fatal(err)
		}
	}
	for b, i := 0, singles; b < batches; b++ {
		batch := make([]FrameBatch, 4)
		for e := range batch {
			batch[e] = FrameBatch{Frame: frame(i), Copies: 2}
			want = append(want, string(batch[e].Frame))
			i++
		}
		if _, err := SendFrames(client, 1, batch); err != nil {
			t.Fatal(err)
		}
	}
	col.wait(t, total)
	if got, _ := col.snapshot(); !slices.Equal(got, want) {
		t.Fatalf("the handler was handed %d frames, not the %d sent in order", len(got), total)
	}
	lent(server, 0, "handled frames")

	// A peer that closes mid-frame: the reader holds a buffer for the
	// 100 promised bytes, gets 10 and EOF.
	c := raw(server)
	if _, err := c.Write(append(binary.BigEndian.AppendUint32(nil, 100), make([]byte, 10)...)); err != nil {
		t.Fatal(err)
	}
	lent(server, 1, "a frame begun")
	_ = c.Close()
	lent(server, 0, "a frame cut short")

	// A length prefix over the limit ends the connection before any
	// buffer is taken: the server closes it, and nothing is out.
	c = raw(server)
	if _, err := c.Write(binary.BigEndian.AppendUint32(nil, maxFrameSize+1)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(c); err != nil {
		t.Fatal(err)
	}
	_ = c.Close()
	if n := server.lent.Outstanding(); n != 0 {
		t.Fatalf("an oversize length prefix lent %d buffers", n)
	}

	// Close between the read and the handler: the first connection's
	// frame is held in the handler; the second's has been read and waits
	// for the handler lock when Close begins, so it is never handled.
	gate, entered := make(chan struct{}), make(chan struct{}, 1)
	var calls atomic.Int32
	held, err := NewTCP(1, "127.0.0.1:0", nil, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = held.Close() }()
	held.SetHandler(func(topology.NodeID, []byte) {
		calls.Add(1)
		entered <- struct{}{}
		<-gate
	})
	first, second := raw(held), raw(held)
	defer func() { _ = first.Close() }()
	defer func() { _ = second.Close() }()
	for _, c := range []net.Conn{first, second} {
		if _, err := c.Write(append(binary.BigEndian.AppendUint32(nil, 1), 'x')); err != nil {
			t.Fatal(err)
		}
		if c == first {
			<-entered
		}
	}
	lent(held, 2, "two frames read")
	closed := make(chan error, 1)
	go func() { closed <- held.Close() }()
	<-held.stop // release the handler only once Close has begun
	close(gate)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("the handler ran %d times, want only the held call", n)
	}
	lent(held, 0, "a frame read as Close began")
}

// TestAllocsTCPReceive pins a warm TCP receive at zero: the reader reads
// each frame into a buffer from its lent pool and takes it back after the
// handler returns, so a frame sent, read, handled and given back — the
// send side included, as TestAllocsTCPFlush pins it — allocates nothing.
func TestAllocsTCPReceive(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation pins do not hold under the race detector")
	}
	handled := make(chan struct{}, 1)
	server, client := tcpPair(t, func(topology.NodeID, []byte) { handled <- struct{}{} })
	defer func() { _ = server.Close() }()
	defer func() { _ = client.Close() }()
	frame := bytes.Repeat([]byte{7}, 300)
	receive := func() {
		if err := client.Send(1, frame); err != nil {
			t.Fatal(err)
		}
		<-handled
		for server.lent.Outstanding() > 0 {
			runtime.Gosched()
		}
	}
	for i := 0; i < 16; i++ { // dial, hello and the pools warm
		receive()
	}
	if got := testing.AllocsPerRun(200, receive); got != 0 {
		t.Errorf("a warm TCP receive allocated %.2f times per frame, want 0", got)
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
