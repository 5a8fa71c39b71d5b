package lanes

import (
	"encoding/binary"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaptivecast/internal/topology"
	"adaptivecast/internal/transport"
)

// Markers stamped into the first byte of every soak frame so the lossy
// conn and the receiver can classify frames without protocol knowledge.
const (
	soakControl = 'C'
	soakData    = 'D'
)

// lossyConn wraps a real TCP conn and discards whole Write calls with
// probability dropP — whole writes, because the transport's framing
// writes complete length-prefixed frames per Write, so a whole-write
// discard models loss without ever corrupting the stream. Writes whose
// frames carry the control marker always pass: the scheduler flushes
// lanes separately (control one-by-one, data as a batch), so a write is
// single-lane and the first frame's marker classifies all of it.
type lossyConn struct {
	net.Conn
	mu         sync.Mutex
	rng        *rand.Rand
	dropP      float64
	sawHello   bool
	dropped    atomic.Int64 // writes discarded
	droppedByM [256]atomic.Int64
}

func (c *lossyConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	if !c.sawHello {
		// The 12-byte magic+ID hello precedes all framing; it must pass.
		c.sawHello = true
		c.mu.Unlock()
		return c.Conn.Write(b)
	}
	drop := c.rng.Float64() < c.dropP
	c.mu.Unlock()
	if !drop || len(b) < 5 || b[4] == soakControl {
		return c.Conn.Write(b)
	}
	// Count the frames being eaten, per marker, so the test can do exact
	// conservation accounting afterwards.
	c.dropped.Add(1)
	for off := 0; off+4 <= len(b); {
		size := int(binary.BigEndian.Uint32(b[off : off+4]))
		off += 4
		if off+size > len(b) || size == 0 {
			break
		}
		c.droppedByM[b[off]].Add(1)
		off += size
	}
	return len(b), nil
}

// soakRx tallies received frames by marker and records control sequence
// numbers to check completeness and FIFO order.
type soakRx struct {
	mu      sync.Mutex
	byM     map[byte]int
	ctlSeqs []uint64
}

func (r *soakRx) handle(_ topology.NodeID, frame []byte) {
	if len(frame) < 9 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.byM[frame[0]]++
	if frame[0] == soakControl {
		r.ctlSeqs = append(r.ctlSeqs, binary.BigEndian.Uint64(frame[1:9]))
	}
}

func (r *soakRx) count(m byte) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byM[m]
}

func soakFrame(marker byte, seq uint64, size int) []byte {
	f := make([]byte, size)
	f[0] = marker
	binary.BigEndian.PutUint64(f[1:9], seq)
	return f
}

// TestSchedulerOverLossyTCP is the lane-scheduler soak the ROADMAP names
// as the prerequisite for making lanes the default send path: the
// scheduler drives a real TCP transport whose outbound conn randomly
// eats writes, and the test pins the lane contract under that hostility —
// control frames are never shed by the scheduler and never lost end to
// end (in order, every one of them), while data shedding stays exactly
// accounted: every frame is received, scheduler-shed, or eaten by the
// injected loss, with nothing unexplained.
func TestSchedulerOverLossyTCP(t *testing.T) {
	rounds := 800
	if testing.Short() {
		rounds = 200
	}

	rx := &soakRx{byM: make(map[byte]int)}
	recv, err := transport.NewTCP(1, "127.0.0.1:0", nil, transport.TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	recv.SetHandler(rx.handle)

	lossy := &lossyConn{rng: rand.New(rand.NewSource(42)), dropP: 0.35}
	send, err := transport.NewTCP(0, "127.0.0.1:0",
		map[topology.NodeID]string{1: recv.Addr().String()},
		transport.TCPOptions{Dial: func(network, address string, timeout time.Duration) (net.Conn, error) {
			c, err := net.DialTimeout(network, address, timeout)
			if err != nil {
				return nil, err
			}
			lossy.Conn = c
			return lossy, nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	send.SetHandler(func(topology.NodeID, []byte) {})

	sched := New(send, Config{QueueDepth: 64})
	defer sched.Close()

	var ctlSent, dataSent int
	enqueue := func(ln Lane, marker byte, seq uint64, size int) {
		if err := sched.Enqueue(1, ln, soakFrame(marker, seq, size), 1, nil); err != nil {
			t.Fatalf("enqueue %c #%d: %v", marker, seq, err)
		}
	}
	for r := 0; r < rounds; r++ {
		enqueue(Control, soakControl, uint64(ctlSent), 32)
		ctlSent++
		for i := 0; i < 10; i++ {
			enqueue(Data, soakData, uint64(dataSent), 256)
			dataSent++
		}
		if r%50 == 49 {
			time.Sleep(time.Millisecond) // let the drain breathe between bursts
		}
	}

	if !sched.WaitIdle(10 * time.Second) {
		t.Fatalf("scheduler never drained; %d frames still pending", sched.Pending())
	}
	// The drain is done; wait for the receiver to catch up with the wire.
	deadline := time.Now().Add(10 * time.Second)
	for rx.count(soakControl) < ctlSent && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let in-flight data land

	stats := sched.Stats()
	if stats.Drops.Control != 0 {
		t.Errorf("scheduler shed %d control frames, want 0", stats.Drops.Control)
	}
	if stats.SendFailures != 0 {
		t.Errorf("scheduler saw %d structural send failures, want 0", stats.SendFailures)
	}

	// No control-frame loss, end to end and in order.
	rx.mu.Lock()
	ctlSeqs := append([]uint64(nil), rx.ctlSeqs...)
	rx.mu.Unlock()
	if len(ctlSeqs) != ctlSent {
		t.Fatalf("received %d control frames, sent %d", len(ctlSeqs), ctlSent)
	}
	for i, seq := range ctlSeqs {
		if seq != uint64(i) {
			t.Fatalf("control frame %d arrived with seq %d: order or completeness violated", i, seq)
		}
	}

	// Exact conservation for the droppable lane: received + shed by the
	// scheduler + eaten by the lossy conn must equal sent.
	netData := int(lossy.droppedByM[soakData].Load())
	if got := rx.count(soakData) + stats.Drops.Data + netData; got != dataSent {
		t.Errorf("data conservation: recv %d + shed %d + net-lost %d = %d, sent %d",
			rx.count(soakData), stats.Drops.Data, netData, got, dataSent)
	}

	// The fault injection must actually have bitten, and shedding must be
	// bounded: the datapath degrades, it does not collapse.
	if lossy.dropped.Load() == 0 {
		t.Error("lossy conn never dropped a write; the soak exercised nothing")
	}
	if rx.count(soakData) == 0 {
		t.Error("no data frames delivered at all")
	}
	if stats.Drops.Data >= dataSent {
		t.Errorf("scheduler shed all %d data frames", stats.Drops.Data)
	}
	t.Logf("control %d/%d, data recv=%d shed=%d net-lost=%d, writes dropped=%d",
		len(ctlSeqs), ctlSent, rx.count(soakData), stats.Drops.Data, netData, lossy.dropped.Load())
}
