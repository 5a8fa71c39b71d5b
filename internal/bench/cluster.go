package main

import (
	"errors"
	"fmt"
	"time"

	"adaptivecast"
	"adaptivecast/internal/transport"
)

// transportKind selects what the cluster's frames cross.
type transportKind int

const (
	// overFabric: the in-process Fabric — a Go channel per endpoint with
	// injected per-link loss. Frames never leave the process.
	overFabric transportKind = iota
	// overTCP: one DialTCP transport per process on 127.0.0.1 — real
	// sockets over the host loopback interface, never a real link.
	overTCP
)

func (k transportKind) String() string {
	if k == overTCP {
		return "TCP sockets over the host loopback interface (127.0.0.1)"
	}
	return "in-process Fabric queues"
}

// cluster is one node per process of the generated topology, each bound
// to a tapped transport, in the default configuration: lanes on, delta
// heartbeats on, plan and forward caches on, K = DefaultK, U = 100.
// Heartbeats are driven by the benchmark through Tick; Start is never
// called.
type cluster struct {
	in     *inputs
	kind   transportKind
	fabric *adaptivecast.Fabric
	tcps   []*adaptivecast.TCP
	taps   []*tap
	nodes  []*adaptivecast.Node
	rec    *recorder
	pacer  *pacer  // every sub-millisecond wait of the benchmark blocks here
	shadow *shadow // traced: shadow view of the process that is abstract node 0
	period int64
	bad    bool // flapping links are in their high-loss state
}

// drainTimeout bounds every wait for the cluster to go quiet.
const drainTimeout = 10 * time.Second

// newCluster builds the cluster and subscribes ck to every process.
func newCluster(in *inputs, kind transportKind, ck *checker, rec *recorder) (c *cluster, err error) {
	n := in.graph.NumNodes()
	c = &cluster{in: in, kind: kind, rec: rec}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	if c.pacer, err = newPacer(); err != nil {
		return c, err
	}
	if kind == overFabric {
		c.fabric = adaptivecast.NewFabric(adaptivecast.FabricOptions{Seed: in.seed})
		for i, l := range in.graph.Links() {
			if err := c.fabric.SetLoss(l.A, l.B, in.loss[i]); err != nil {
				return c, err
			}
		}
	} else {
		for i := 0; i < n; i++ {
			t, err := adaptivecast.DialTCP(adaptivecast.NodeID(i), "127.0.0.1:0", nil, adaptivecast.TCPOptions{})
			if err != nil {
				return c, err
			}
			c.tcps = append(c.tcps, t)
		}
		for i, t := range c.tcps {
			for _, nb := range in.graph.Neighbors(adaptivecast.NodeID(i)) {
				t.AddPeer(nb, c.tcps[nb].Addr().String())
			}
		}
	}
	for i := 0; i < n; i++ {
		id := adaptivecast.NodeID(i)
		var inner transport.Transport
		if kind == overFabric {
			inner = c.fabric.Endpoint(id)
		} else {
			inner = c.tcps[i]
		}
		tp, err := newTap(inner, rec)
		if err != nil {
			return c, err
		}
		c.taps = append(c.taps, tp)
		nd, err := adaptivecast.NewNode(tp, n, in.graph.Neighbors(id))
		if err != nil {
			return c, fmt.Errorf("node %d: %w", i, err)
		}
		c.nodes = append(c.nodes, nd)
		nd.Subscribe(func(d adaptivecast.Delivery) { ck.deliver(i, d) })
	}
	if rec != nil {
		id := adaptivecast.NodeID(in.perm[0])
		if c.shadow, err = newShadow(id, n, in.graph.Neighbors(id), adaptivecast.DefaultK); err != nil {
			return c, err
		}
		rec.shadows[int(id)] = c.shadow
	}
	return c, nil
}

// close stops every node, then the transports under them.
func (c *cluster) close() {
	for _, nd := range c.nodes {
		_ = nd.Close() // always nil
	}
	if c.fabric != nil {
		_ = c.fabric.Close() // endpoint Close is always nil
	}
	for _, t := range c.tcps {
		_ = t.Close() // teardown: nothing left to report to
	}
	if c.pacer != nil {
		c.pacer.close()
	}
}

// tickAll advances every node one heartbeat period, synchronously and in
// id order, and returns the wall time of each Node.Tick call (appended to
// dst, in ns). Frames the ticks enqueue are flushed and handled
// concurrently by the nodes' own goroutines; call drain to wait for them.
func (c *cluster) tickAll(dst []float64) []float64 {
	c.period++
	if c.rec != nil {
		c.rec.period.Store(c.period)
	}
	for i, nd := range c.nodes {
		t0 := time.Now()
		nd.Tick()
		dt := time.Since(t0)
		dst = append(dst, float64(dt))
		if c.rec != nil {
			end := c.rec.now()
			c.rec.call(spanTick, i, i, uint64(c.period), end-int64(dt), end)
			if i == c.in.perm[0] {
				c.shadow.period()
			}
		}
	}
	return dst
}

// wireDelivered is the number of frame copies the transports have taken
// and not dropped: every one of them ends in a handler invocation.
func (c *cluster) wireDelivered() int64 {
	if c.kind == overFabric {
		st := c.fabric.Stats()
		return int64(st.Sent - st.Lost - st.FaultDrops - st.Overflows)
	}
	var sent int64
	for _, t := range c.tcps {
		sent += int64(t.Stats().FramesSent)
	}
	return sent
}

func (c *cluster) handled() int64 {
	var h int64
	for _, t := range c.taps {
		h += t.handled.Load()
	}
	return h
}

// drain blocks until the cluster is quiet: every lane empty and every
// frame the transports accepted handled, observed twice in a row with no
// handler completing in between (a handler that is still running may yet
// enqueue relays). Between looks it blocks on the pacer; it never spins
// (and never calls time.Sleep, which would park the whole process for a
// millisecond per look — see pacer_linux.go).
func (c *cluster) drain() error {
	deadline := time.Now().Add(drainTimeout)
	var prev int64 = -1
	for {
		idle := true
		for _, nd := range c.nodes {
			if !nd.WaitSendIdle(0) {
				idle = false
				break
			}
		}
		h := c.handled()
		if idle && c.wireDelivered() == h {
			if h == prev {
				return nil
			}
			prev = h
		} else {
			prev = -1
		}
		if time.Now().After(deadline) {
			return errors.New("bench: cluster did not go quiet")
		}
		if err := c.pacer.sleep(50 * time.Microsecond); err != nil {
			return err
		}
	}
}

// warmup runs the given number of heartbeat periods, each drained, one
// every `every` (0 = back to back): a deployment's heartbeat is a timer,
// and the time a cluster takes to converge is periods × interval. A period
// that overruns its slot starts the next at once.
func (c *cluster) warmup(periods int, every time.Duration) error {
	var scratch []float64
	start := time.Now()
	for p := 0; p < periods; p++ {
		scratch = c.tickAll(scratch[:0])
		if err := c.drain(); err != nil {
			return err
		}
		if wait := time.Until(start.Add(time.Duration(p+1) * every)); wait > 0 {
			if err := c.pacer.sleep(wait); err != nil {
				return err
			}
		}
	}
	return nil
}

// setFlap moves the flapping links into (or out of) their high-loss
// state.
func (c *cluster) setFlap(bad bool) error {
	c.bad = bad
	for _, i := range c.in.flap {
		l := c.in.graph.Link(i)
		if err := c.fabric.SetLoss(l.A, l.B, c.in.lossAt(i, bad)); err != nil {
			return err
		}
	}
	return nil
}

// counters is the sum over nodes of the protocol counters the metrics
// need, plus the transports' own.
type counters struct {
	dataSent, dataReceived             int
	hbSent, hbBytes                    int
	planHits, planMisses               int
	fwdHits, fwdMisses                 int
	poolHits, poolMisses               int
	laneData, droppedDeliv, decodeErrs int
	overflows                          int
}

func (c *cluster) counters() counters {
	var s counters
	for _, nd := range c.nodes {
		st := nd.Stats()
		s.dataSent += st.DataSent
		s.dataReceived += st.DataReceived
		s.hbSent += st.HeartbeatsSent
		s.hbBytes += st.HeartbeatBytesSent
		s.planHits += st.PlanCacheHits
		s.planMisses += st.PlanCacheMisses
		s.fwdHits += st.ForwardCacheHits
		s.fwdMisses += st.ForwardCacheMisses
		s.poolHits += st.EncodePoolHits
		s.poolMisses += st.EncodePoolMisses
		s.laneData += st.LaneDrops.Data
		s.droppedDeliv += st.DroppedDeliveries
		s.decodeErrs += st.DecodeErrors
	}
	if c.fabric != nil {
		s.overflows = c.fabric.Stats().Overflows
	}
	return s
}

// sub returns the counters accumulated since an earlier reading.
func (s counters) sub(o counters) counters {
	return counters{
		dataSent: s.dataSent - o.dataSent, dataReceived: s.dataReceived - o.dataReceived,
		hbSent: s.hbSent - o.hbSent, hbBytes: s.hbBytes - o.hbBytes,
		planHits: s.planHits - o.planHits, planMisses: s.planMisses - o.planMisses,
		fwdHits: s.fwdHits - o.fwdHits, fwdMisses: s.fwdMisses - o.fwdMisses,
		poolHits: s.poolHits - o.poolHits, poolMisses: s.poolMisses - o.poolMisses,
		laneData: s.laneData - o.laneData, droppedDeliv: s.droppedDeliv - o.droppedDeliv,
		decodeErrs: s.decodeErrs - o.decodeErrs, overflows: s.overflows - o.overflows,
	}
}

func (s counters) drops() systemDrops {
	return systemDrops{laneData: s.laneData, droppedDeliveries: s.droppedDeliv,
		overflows: s.overflows, decodeErrors: s.decodeErrs}
}

// lossMAE is the mean absolute error of every node's loss estimate of
// every link it knows, against the loss currently configured.
func (c *cluster) lossMAE() float64 {
	flapping := make(map[int]bool, len(c.in.flap))
	for _, i := range c.in.flap {
		flapping[i] = true
	}
	sum, cnt := 0.0, 0
	for _, nd := range c.nodes {
		for i, l := range c.in.graph.Links() {
			est, _, ok := nd.LossEstimate(l)
			if !ok {
				continue
			}
			truth := c.in.lossAt(i, c.bad && flapping[i])
			if est > truth {
				sum += est - truth
			} else {
				sum += truth - est
			}
			cnt++
		}
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}
