package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"adaptivecast/internal/pool"
	"adaptivecast/internal/topology"
)

const (
	// tcpMagic guards against cross-protocol connections.
	tcpMagic = 0xADCA57
	// maxFrameSize bounds a single frame (heartbeats carry full knowledge
	// snapshots, which grow with the system; 64 MiB is far above any
	// realistic view).
	maxFrameSize = 64 << 20
)

// TCPOptions tunes the TCP transport.
type TCPOptions struct {
	// DialTimeout bounds outbound connection establishment (default 5s).
	DialTimeout time.Duration
	// Dial, when non-nil, replaces net.DialTimeout for outbound
	// connections. Fault-injection tests use it to wrap the returned
	// net.Conn (e.g. a lossy conn that discards whole writes); production
	// code leaves it nil.
	Dial func(network, address string, timeout time.Duration) (net.Conn, error)
}

func (o TCPOptions) withDefaults() TCPOptions {
	if o.DialTimeout == 0 {
		o.DialTimeout = 5 * time.Second
	}
	return o
}

// TCP is a Transport over real sockets: length-prefixed frames preceded by
// a one-time hello identifying the sender. Connections are dialed on
// demand and cached. Each inbound connection's reader runs the handler
// itself, under one transport-wide lock, so the node sees one frame at a
// time and each connection's frames in order. A reader waiting on the
// handler reads nothing, so a slow handler backs up into the kernel
// socket buffer and then the sender: TCP never drops and keeps no queue.
//
// TCP implements FrameOwner: every frame is read into a fresh buffer the
// transport never touches again. It implements BatchSender, and the n
// copies of one SendN share a fate: on one in-order stream, if copy k
// arrives then copy 1 arrived before it. So TCP writes each frame once,
// however many copies it is handed. A broken connection delivers a byte
// prefix of the stream, and the one copy ends no later than the first
// of n would have, so no cut point delivers fewer distinct frames.
type TCP struct {
	local    topology.NodeID
	opts     TCPOptions
	listener net.Listener

	// handleMu serializes handler calls across every reader and guards
	// handler.
	handleMu sync.Mutex
	handler  Handler

	mu      sync.Mutex
	peers   map[topology.NodeID]string   // static address book
	conns   map[topology.NodeID]*tcpConn // outbound connection cache
	inConns map[net.Conn]struct{}        // accepted connections (closed on shutdown)
	closed  bool

	flushes    atomic.Int64
	framesSent atomic.Int64
	bytesSent  atomic.Int64

	stop chan struct{}
	wg   sync.WaitGroup
}

// TCPStats counts outbound transport work. Flushes is the number of
// socket Write calls (≈ syscalls): the batching contract is that SendN
// costs one flush however many copies it carries, which the transport
// tests assert through this hook.
type TCPStats struct {
	Flushes    int // socket writes issued
	FramesSent int // frames written; the peer's handler runs once per frame
	BytesSent  int // bytes handed to the socket (headers included)
}

// Stats returns a snapshot of the outbound counters.
func (t *TCP) Stats() TCPStats {
	return TCPStats{
		Flushes:    int(t.flushes.Load()),
		FramesSent: int(t.framesSent.Load()),
		BytesSent:  int(t.bytesSent.Load()),
	}
}

// tcpConn wraps an outbound connection with a write lock.
type tcpConn struct {
	mu sync.Mutex
	c  net.Conn
}

var _ Transport = (*TCP)(nil)
var _ FrameOwner = (*TCP)(nil)
var _ BatchSender = (*TCP)(nil)
var _ MultiFrameSender = (*TCP)(nil)

// NewTCP starts a TCP transport for node `local`, listening on listenAddr
// and able to reach the peers in the address book (peer ID → host:port).
func NewTCP(local topology.NodeID, listenAddr string, peers map[topology.NodeID]string, opts TCPOptions) (*TCP, error) {
	opts = opts.withDefaults()
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", listenAddr, err)
	}
	t := &TCP{
		local:    local,
		opts:     opts,
		listener: ln,
		peers:    make(map[topology.NodeID]string, len(peers)),
		conns:    make(map[topology.NodeID]*tcpConn),
		inConns:  make(map[net.Conn]struct{}),
		stop:     make(chan struct{}),
	}
	for id, addr := range peers {
		t.peers[id] = addr
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the bound listen address (useful with ":0").
func (t *TCP) Addr() net.Addr { return t.listener.Addr() }

// HandlerOwnsFrame implements FrameOwner: readLoop reads every frame into
// a fresh buffer and never touches it again, so a delivered body and a
// relayed frame may be the inbound bytes themselves.
func (t *TCP) HandlerOwnsFrame() bool { return true }

// AddPeer extends the address book at runtime.
func (t *TCP) AddPeer(id topology.NodeID, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.peers[id] = addr
}

// Local implements Transport.
func (t *TCP) Local() topology.NodeID { return t.local }

// SetHandler implements Transport.
func (t *TCP) SetHandler(h Handler) {
	t.handleMu.Lock()
	defer t.handleMu.Unlock()
	t.handler = h
}

// Send implements Transport.
func (t *TCP) Send(to topology.NodeID, frame []byte) error {
	return t.SendN(to, frame, 1)
}

// SendN implements BatchSender: the one-entry case of SendFrames, so a
// per-edge burst of m[j] > 0 copies puts the frame on the wire once, in
// one Write. A single Send is the n=1 case of the same path (header and
// frame coalesced — half the writes of a header-then-body sequence).
func (t *TCP) SendN(to topology.NodeID, frame []byte, n int) error {
	batch := [1]FrameBatch{{Frame: frame, Copies: n}}
	return t.SendFrames(to, batch[:])
}

// SendFrames implements MultiFrameSender: each entry with Copies > 0 is
// laid out length-prefixed once, in order, in one pooled buffer and
// flushed with a single Write, so a lane-scheduler flush coalescing
// several broadcasts to one peer costs one syscall however many frames
// it carries. Write has returned before the buffer goes back to the pool.
func (t *TCP) SendFrames(to topology.NodeID, batch []FrameBatch) error {
	size := 0
	for _, e := range batch {
		if e.Copies <= 0 {
			continue
		}
		if len(e.Frame) > maxFrameSize {
			return fmt.Errorf("transport: frame of %d bytes exceeds limit", len(e.Frame))
		}
		size += 4 + len(e.Frame)
	}
	if size == 0 {
		return nil
	}
	conn, err := t.connTo(to)
	if err != nil {
		return err
	}
	wb := writeBufs.Get()
	defer writeBufs.Put(wb)
	frames := 0
	buf := slices.Grow(wb.b, size)
	for _, e := range batch {
		if e.Copies > 0 {
			buf = binary.BigEndian.AppendUint32(buf, uint32(len(e.Frame)))
			buf = append(buf, e.Frame...)
			frames++
		}
	}
	wb.b = buf
	conn.mu.Lock()
	defer conn.mu.Unlock()
	if _, err := conn.c.Write(buf); err != nil {
		t.dropConn(to, conn)
		return fmt.Errorf("transport: write to %d: %w", to, err)
	}
	t.flushes.Add(1)
	t.framesSent.Add(int64(frames))
	t.bytesSent.Add(int64(len(buf)))
	return nil
}

// writeBuf is one pooled flush buffer; the pointer wrapper keeps the
// pool from boxing a slice header on every Put.
type writeBuf struct{ b []byte }

// keepBuf bounds the buffers a pool of this package keeps (TCP's flush
// buffers, the Fabric's lent frames): a rare huge frame (up to
// maxFrameSize) is not pinned for good.
const keepBuf = 64 << 10

// writeBufs recycles flush buffers across every TCP transport of the
// process; a buffer per connection would sit in the heap between flushes.
var writeBufs = pool.Pool[writeBuf]{Reset: func(wb *writeBuf) bool {
	wb.b = wb.b[:0]
	return cap(wb.b) <= keepBuf
}}

// connTo returns a cached connection or dials one, sending the hello.
func (t *TCP) connTo(to topology.NodeID) (*tcpConn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, errors.New("transport: closed")
	}
	if c, ok := t.conns[to]; ok {
		t.mu.Unlock()
		return c, nil
	}
	addr, ok := t.peers[to]
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: unknown peer %d", to)
	}

	dial := t.opts.Dial
	if dial == nil {
		dial = net.DialTimeout
	}
	raw, err := dial("tcp", addr, t.opts.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %d (%s): %w", to, addr, err)
	}
	hello := make([]byte, 12)
	binary.BigEndian.PutUint32(hello[0:4], tcpMagic)
	binary.BigEndian.PutUint64(hello[4:12], uint64(int64(t.local)))
	if _, err := raw.Write(hello); err != nil {
		_ = raw.Close()
		return nil, fmt.Errorf("transport: hello to %d: %w", to, err)
	}

	conn := &tcpConn{c: raw}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		_ = raw.Close()
		return nil, errors.New("transport: closed")
	}
	if existing, ok := t.conns[to]; ok {
		_ = raw.Close() // lost the race; use the winner
		return existing, nil
	}
	t.conns[to] = conn
	return conn, nil
}

// dropConn evicts a broken cached connection.
func (t *TCP) dropConn(to topology.NodeID, conn *tcpConn) {
	_ = conn.c.Close()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.conns[to] == conn {
		delete(t.conns, to)
	}
}

// Close implements Transport.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := make([]net.Conn, 0, len(t.conns)+len(t.inConns))
	for _, c := range t.conns {
		conns = append(conns, c.c)
	}
	for c := range t.inConns {
		conns = append(conns, c)
	}
	t.conns = make(map[topology.NodeID]*tcpConn)
	t.inConns = make(map[net.Conn]struct{})
	t.mu.Unlock()

	close(t.stop)
	_ = t.listener.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	t.wg.Wait() // readers: a handler call in progress finishes first
	return nil
}

// acceptLoop accepts inbound connections and spawns a reader per
// connection.
func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.listener.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			_ = conn.Close()
			return
		}
		t.inConns[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

// readLoop validates the hello, then reads frames and runs the handler on
// each, one connection's frames in order.
func (t *TCP) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		_ = conn.Close()
		t.mu.Lock()
		delete(t.inConns, conn)
		t.mu.Unlock()
	}()

	hello := make([]byte, 12)
	if _, err := io.ReadFull(conn, hello); err != nil {
		return
	}
	if binary.BigEndian.Uint32(hello[0:4]) != tcpMagic {
		return
	}
	from := topology.NodeID(int64(binary.BigEndian.Uint64(hello[4:12])))

	header := make([]byte, 4)
	for {
		if _, err := io.ReadFull(conn, header); err != nil {
			return
		}
		size := binary.BigEndian.Uint32(header)
		if size > maxFrameSize {
			return
		}
		frame := make([]byte, size) // the handler's to keep (FrameOwner)
		if _, err := io.ReadFull(conn, frame); err != nil {
			return
		}
		// The reader waits for the lock and then for the call: a held
		// handler holds the connection, and the sender's writes back up
		// behind it — backpressure instead of loss. Once Close has begun,
		// no further call starts.
		t.handleMu.Lock()
		select {
		case <-t.stop:
			t.handleMu.Unlock()
			return
		default:
		}
		if t.handler != nil {
			t.handler(from, frame)
		}
		t.handleMu.Unlock()
	}
}
