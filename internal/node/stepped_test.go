package node

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"adaptivecast/internal/dataplane"
	"adaptivecast/internal/heartbeat"
	"adaptivecast/internal/topology"
	"adaptivecast/internal/wire"
)

// stepped is a cluster of protocol cores stepped by hand, with no
// goroutine, lock, lane or transport: Tick, Receive and Broadcast run
// in a fixed order, and every frame their effects name goes into one
// FIFO that drain hands out, each frame dropped with its link's loss
// drawn from one seeded source. A test of the protocol runs one
// schedule on it, and a round is done exactly when the FIFO is empty.
type stepped struct {
	t     testing.TB
	nodes []*stepNode
	rng   *rand.Rand
	loss  map[topology.Link]float64
	mail  []mail
	// tap, when set, sees every frame a core sends, as it is sent.
	tap func(mail)
	ws  heartbeat.Period
	fx  Effects
	sc  wire.Scratch
}

// stepNode is one process of a stepped cluster: its core, what a runtime
// counts of it, and what it delivered. A stopped one runs nothing and
// receives nothing.
type stepNode struct {
	*Core
	stats     counters
	delivered []Delivery
	stopped   bool
}

// Stats is what the node would count; the send path's fields
// stay 0.
func (sn *stepNode) Stats() Stats { return sn.stats.snapshot() }

func (sn *stepNode) KnownLinks() []topology.Link { return sn.view.KnownLinks() }

func (sn *stepNode) CrashEstimate(i topology.NodeID) (float64, int) { return sn.view.CrashEstimate(i) }

func (sn *stepNode) LossEstimate(l topology.Link) (float64, int, bool) {
	return sn.view.LossEstimate(l)
}

// newStepped builds one core per process of g, its loss draws seeded by
// seed; cfg, when set, edits each Config.
func newStepped(t testing.TB, g *topology.Graph, seed int64, cfg func(*Config)) *stepped {
	t.Helper()
	s := &stepped{t: t, rng: rand.New(rand.NewSource(seed)), loss: make(map[topology.Link]float64)}
	for i := range g.NumNodes() {
		id := topology.NodeID(i)
		c := Config{ID: id, NumProcs: g.NumNodes(), Neighbors: g.Neighbors(id)}
		if cfg != nil {
			cfg(&c)
		}
		s.add(c)
	}
	return s
}

// add puts a core for cfg at cfg.ID, in place of the one there (a
// restart) or as a new process (a joiner).
func (s *stepped) add(cfg Config) *stepNode {
	s.t.Helper()
	c, err := NewCore(cfg, nil)
	if err != nil {
		s.t.Fatal(err)
	}
	sn := &stepNode{Core: c}
	for len(s.nodes) <= int(cfg.ID) {
		s.nodes = append(s.nodes, nil)
	}
	s.nodes[cfg.ID] = sn
	return sn
}

// setLoss makes the link between a and b drop each frame with
// probability p.
func (s *stepped) setLoss(a, b topology.NodeID, p float64) { s.loss[topology.NewLink(a, b)] = p }

// ticks runs `periods` heartbeat periods: each a Tick of every running
// core in ID order, then a drain. With full set every core forgets its
// acks first, so every heartbeat is the full snapshot.
func (s *stepped) ticks(periods int, full bool) {
	for range periods {
		for _, sn := range s.nodes {
			if sn != nil && !sn.stopped {
				if full {
					sn.hb.Reset()
				}
				s.tick(sn)
			}
		}
		s.drain()
	}
}

// tick runs one period of sn, posting its control frames and then its
// heartbeats in destination order, as the node's lanes hand each peer
// its frames in order.
func (s *stepped) tick(sn *stepNode) {
	defer s.ws.Reset()
	sn.Tick(&s.ws, &s.fx)
	s.post(sn, &s.fx)
	from := len(s.mail)
	for k, o := range s.ws.Outbound() {
		frame, err := s.ws.AppendFrame(nil, k, s.fx.Epoch)
		if err != nil {
			s.t.Fatal(err)
		}
		sn.stats.heartbeatsSent.Add(1)
		sn.stats.heartbeatBytesSent.Add(int64(len(frame)))
		if o.Since > 0 {
			sn.stats.deltaHeartbeatsSent.Add(1)
		}
		s.send(mail{sn.id, o.To, frame})
	}
	slices.SortStableFunc(s.mail[from:], func(a, b mail) int { return cmp.Compare(a.to, b.to) })
}

// broadcast has process i broadcast body, and returns its seq and the
// planned copies; drain carries it.
func (s *stepped) broadcast(i topology.NodeID, body []byte) (seq uint64, planned int) {
	sn := s.nodes[i]
	sn.Broadcast(body, &s.fx)
	s.post(sn, &s.fx)
	return s.fx.Seq, s.fx.Planned
}

// drain hands out the mail, and what it makes the cores send, until none
// is left: a frame its link drops, or one for a stopped or missing core,
// is gone.
func (s *stepped) drain() {
	for len(s.mail) > 0 {
		m := s.mail[0]
		s.mail = s.mail[1:]
		if p := s.loss[topology.NewLink(m.from, m.to)]; p > 0 && s.rng.Float64() < p {
			continue
		}
		if int(m.to) >= len(s.nodes) || s.nodes[m.to] == nil || s.nodes[m.to].stopped {
			continue
		}
		s.deliver(m.from, m.to, m.frame)
	}
}

// deliver hands one frame to process to, as Node.handle does.
func (s *stepped) deliver(from, to topology.NodeID, frame []byte) {
	sn := s.nodes[to]
	f, err := s.sc.DecodeBorrow(frame)
	if err != nil {
		sn.stats.decodeErrors.Add(1)
		return
	}
	sn.Receive(from, f, frame, &s.fx)
	if s.fx.Merged {
		sn.stats.noteVerdicts(sn.view)
	}
	sn.stats.count(&s.fx)
	s.post(sn, &s.fx)
}

// post carries out fx for sn: its control frames and data copies go in
// the mail, its delivery into sn.delivered.
func (s *stepped) post(sn *stepNode, fx *Effects) {
	for _, c := range fx.Control {
		s.send(mail{sn.id, c.To, c.Frame})
	}
	if fx.Deliver {
		sn.stats.delivered.Add(1)
		sn.delivered = append(sn.delivered, fx.Delivery)
	}
	if !fx.Out {
		return
	}
	frame, err := dataplane.AppendRelay(nil, fx.Msg, fx.Raw, fx.Snap)
	if err != nil {
		s.t.Fatal(err)
	}
	for to, copies, ok := fx.Sends.Next(); ok; to, copies, ok = fx.Sends.Next() {
		sn.stats.dataSent.Add(int64(copies))
		for range copies {
			s.send(mail{sn.id, to, frame})
		}
	}
}

func (s *stepped) send(m mail) {
	if s.tap != nil {
		s.tap(m)
	}
	s.mail = append(s.mail, m)
}

// join adds the joiner cfg describes and floods its announcement.
func (s *stepped) join(cfg Config) *stepNode {
	s.t.Helper()
	sn := s.add(cfg)
	if err := sn.AnnounceJoin(&s.fx); err != nil {
		s.t.Fatal(err)
	}
	s.post(sn, &s.fx)
	return sn
}

// leave stops leaver and has process by announce its departure from its
// own view, at its epoch + 1.
func (s *stepped) leave(by, leaver topology.NodeID) {
	s.t.Helper()
	s.nodes[leaver].stopped = true
	sn := s.nodes[by]
	m, err := sn.LeaveOf(leaver, sn.Epoch()+1)
	if err == nil {
		err = sn.AnnounceLeave(m, &s.fx)
	}
	if err != nil {
		s.t.Fatal(err)
	}
	sn.stats.count(&s.fx)
	s.post(sn, &s.fx)
}

// adopt applies a join announcement at sn as if it had arrived, relaying
// it nowhere, and reports whether it was newer than sn's epoch.
func (sn *stepNode) adopt(m *wire.Membership) bool {
	var fx Effects
	lc := sn.apply(wire.FrameJoin, m, &fx)
	sn.stats.count(&fx)
	return lc != nil
}

// take returns what sn delivered since the last take.
func (sn *stepNode) take() []Delivery {
	ds := sn.delivered
	sn.delivered = nil
	return ds
}
