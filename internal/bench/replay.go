package main

import (
	"errors"
	"sync"
	"time"

	"adaptivecast"
	"adaptivecast/internal/dedup"
	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/lanes"
	"adaptivecast/internal/mrt"
	"adaptivecast/internal/optimize"
	"adaptivecast/internal/transport"
	"adaptivecast/internal/wire"
)

// Layer replays: the traced run times the pure layers' public functions
// on the inputs the tap saw, from the benchmark's own files. A shadow
// knowledge.View follows one sampled node online — the same BeginPeriod
// per tick, the same inbound heartbeat frames decoded and merged — and the
// heartbeat-building and planning pipeline is then run on it each period.
// Data-frame, dedup, estimator and lane-scheduler replays run once, after
// the workload, on frames the tap kept.

// timer accumulates calls and nanoseconds for one replayed function.
type timer struct {
	calls int64
	ns    int64
}

func (t *timer) since(start time.Time) {
	t.calls++
	t.ns += int64(time.Since(start))
}

func (t timer) sub(o timer) timer { return timer{t.calls - o.calls, t.ns - o.ns} }

// per returns the mean duration of one call in the given unit.
func (t timer) per(unit time.Duration) float64 {
	if t.calls == 0 {
		return 0
	}
	return float64(t.ns) / float64(t.calls) / float64(unit)
}

// shadowSums are a shadow view's accumulated measurements.
type shadowSums struct {
	begin, merge, delta, snapshot, estConfig timer // knowledge
	hbDecode, hbEncode                       timer // wire
	build, greedy                            timer // mrt, optimize
	recsShipped, recsInView                  int64 // inbound records vs records held, per inbound frame
}

func (s shadowSums) sub(o shadowSums) shadowSums {
	return shadowSums{
		begin: s.begin.sub(o.begin), merge: s.merge.sub(o.merge), delta: s.delta.sub(o.delta),
		snapshot: s.snapshot.sub(o.snapshot), estConfig: s.estConfig.sub(o.estConfig),
		hbDecode: s.hbDecode.sub(o.hbDecode), hbEncode: s.hbEncode.sub(o.hbEncode),
		build: s.build.sub(o.build), greedy: s.greedy.sub(o.greedy),
		recsShipped: s.recsShipped - o.recsShipped, recsInView: s.recsInView - o.recsInView,
	}
}

// shadow is the replayed view of one sampled node.
type shadow struct {
	k float64

	mu      sync.Mutex // the handler goroutine merges, the tick driver does the rest
	view    *knowledge.View
	lastVer uint64 // view version at the previous period's cut: the base of the next delta
	records int64  // records in the view at the last cut
	sums    shadowSums
	// hbFrameBytes are the sizes of the inbound heartbeat frames.
	hbFrameBytes []float64
	// Latest plan figures (refreshed every period the view can plan).
	depthMax, allocTotal int
	predictedReach       float64
	viewBytes            int
	buf, sec             []byte
}

func newShadow(id adaptivecast.NodeID, n int, neighbors []adaptivecast.NodeID, k float64) (*shadow, error) {
	v, err := knowledge.NewView(id, n, neighbors, nil, knowledge.Params{})
	if err != nil {
		return nil, err
	}
	return &shadow{k: k, view: v}, nil
}

// merge replays one inbound heartbeat frame: decode, then Event 1.
func (s *shadow) merge(frame []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := time.Now()
	f, err := wire.Decode(frame)
	s.sums.hbDecode.since(t)
	if err != nil {
		return
	}
	var snap *knowledge.Snapshot
	cadence := 1
	switch f.Kind {
	case wire.FrameKnowledgeDelta:
		snap, cadence = f.Delta.Snap, int(f.Delta.Cadence)
	case wire.FrameHeartbeat:
		snap = f.Heartbeat
	case wire.FrameData, wire.FrameJoin, wire.FrameLeave:
		return
	}
	s.hbFrameBytes = append(s.hbFrameBytes, float64(len(frame)))
	s.sums.recsShipped += int64(len(snap.Procs) + len(snap.Links))
	s.sums.recsInView += s.records
	t = time.Now()
	_ = s.view.MergeSnapshotAt(snap, cadence) // a rejected snapshot is the real node's counter to report
	s.sums.merge.since(t)
}

// period replays one heartbeat period after the real node's Tick: Events
// 2 and 3, the delta cut against last period's version, its encoding, and
// the planning pipeline a broadcast would run on the new view.
func (s *shadow) period() {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := time.Now()
	s.view.BeginPeriod()
	s.sums.begin.since(t)

	var cut *knowledge.Snapshot
	if s.lastVer > 0 {
		t = time.Now()
		cut, _ = s.view.DeltaSince(s.lastVer)
		s.sums.delta.since(t)
	}
	t = time.Now()
	full := s.view.Snapshot()
	s.sums.snapshot.since(t)
	s.records = int64(len(full.Procs) + len(full.Links))
	since := s.lastVer
	if cut == nil {
		cut, since = full, 0
	}
	s.lastVer = s.view.Version()

	t = time.Now()
	sec, err := wire.AppendSnapshotSection(s.sec[:0], cut)
	if err == nil {
		s.sec = sec
		var b []byte
		b, err = wire.AppendDeltaFrame(s.buf[:0], &wire.KnowledgeDelta{Since: since, Ver: s.lastVer, Cadence: 1}, sec)
		if err == nil {
			s.buf = b
		}
	}
	s.sums.hbEncode.since(t)
	if sec, err := wire.AppendSnapshotSection(s.sec[:0], full); err == nil {
		s.sec = sec
		s.viewBytes = len(sec)
	}

	t = time.Now()
	g, c, err := s.view.EstimatedConfig()
	s.sums.estConfig.since(t)
	if err != nil {
		return
	}
	t = time.Now()
	tree, err := mrt.Build(g, c, s.view.Self())
	if err != nil {
		return // the view does not span the cluster yet
	}
	lams, err := tree.Lambdas(c)
	s.sums.build.since(t)
	if err != nil {
		return
	}
	t = time.Now()
	alloc, err := optimize.Greedy(lams, s.k, optimize.Options{})
	s.sums.greedy.since(t)
	if err != nil {
		return
	}
	s.allocTotal = optimize.Total(alloc)
	s.predictedReach = optimize.Reach(lams, alloc)
	s.depthMax = 0
	for _, v := range tree.Order() {
		if d := tree.Depth(v); d > s.depthMax {
			s.depthMax = d
		}
	}
}

func (s *shadow) snapshotSums() shadowSums {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sums
}

// offlineReplays are the one-shot replays run after the workload.
type offlineReplays struct {
	dataEncode, dataDecode, splice timer // wire, on kept data frames
	fromParents                    timer // mrt
	dedupMark                      timer // dedup
	observe                        timer // bayes
	enqueue                        timer // lanes
	dataFrameBytes                 float64
}

// replayBudget bounds each offline replay loop.
const replayBudget = 40 * time.Millisecond

// loop runs fn over items round-robin until the budget is spent and
// returns the accumulated timer (the clock is read once per round).
func loop(n int, fn func(i int)) timer {
	var t timer
	if n == 0 {
		return t
	}
	start := time.Now()
	for time.Since(start) < replayBudget {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		t.ns += int64(time.Since(t0))
		t.calls += int64(n)
	}
	return t
}

// runOfflineReplays times the wire, mrt, dedup, bayes and lanes functions
// on the frames the tap kept and the shadow view's state.
func runOfflineReplays(frames [][]byte, sh *shadow) (offlineReplays, error) {
	var r offlineReplays
	msgs := make([]*wire.DataMsg, 0, len(frames))
	total := 0
	for _, f := range frames {
		d, err := wire.Decode(f)
		if err != nil || d.Kind != wire.FrameData {
			return r, errors.New("bench: kept data frame does not decode")
		}
		msgs = append(msgs, d.Data)
		total += len(f)
	}
	if len(frames) > 0 {
		r.dataFrameBytes = float64(total) / float64(len(frames))
	}
	var sink int
	r.dataDecode = loop(len(frames), func(i int) {
		f, _ := wire.DecodeBorrow(frames[i])
		sink += len(f.Data.Body)
	})
	buf := make([]byte, 0, 4096)
	r.dataEncode = loop(len(msgs), func(i int) {
		buf, _ = wire.AppendFrame(buf[:0], &wire.Frame{Kind: wire.FrameData, Data: msgs[i]})
	})
	sh.mu.Lock()
	snap := sh.view.Snapshot()
	self := sh.view.Self()
	est := sh.view.ProcEstimator(self).Clone()
	sh.mu.Unlock()
	r.splice = loop(len(frames), func(i int) {
		buf, _ = wire.SpliceDataPiggyback(buf[:0], frames[i], snap)
	})
	r.fromParents = loop(len(msgs), func(i int) {
		if len(msgs[i].Parents) > 0 {
			t, _ := mrt.FromParents(msgs[i].Root, msgs[i].Parents)
			sink += t.NumNodes()
		}
	})
	// dedup.Log.Record on a volatile log stands in for the node's private
	// delivered set, which has no public entry point.
	log := dedup.NewVolatile()
	var seq uint64
	r.dedupMark = loop(len(msgs), func(i int) {
		seq++
		fresh, _ := log.Record(dedup.ID{Origin: msgs[i].Origin, Seq: seq})
		if fresh {
			sink++
		}
	})
	r.observe = loop(64, func(i int) {
		if i%16 == 0 {
			est.ObserveFailure(1)
		} else {
			est.ObserveSuccess(1)
		}
	})
	var err error
	if r.enqueue, err = replayLanes(frames); err != nil {
		return r, err
	}
	_ = sink
	return r, nil
}

// sinkTransport swallows frames; the lanes replay measures the scheduler
// alone.
type sinkTransport struct{}

func (sinkTransport) Local() adaptivecast.NodeID                                   { return 0 }
func (sinkTransport) SetHandler(transport.Handler)                                 {}
func (sinkTransport) Send(adaptivecast.NodeID, []byte) error                       { return nil }
func (sinkTransport) SendN(adaptivecast.NodeID, []byte, int) error                 { return nil }
func (sinkTransport) SendFrames(adaptivecast.NodeID, []transport.FrameBatch) error { return nil }
func (sinkTransport) Close() error                                                 { return nil }

// replayLanes times lanes.Scheduler.Enqueue on the kept frames over a
// sink transport, four peers. Between rounds (untimed) the drains catch
// up, so nothing is ever shed.
func replayLanes(frames [][]byte) (timer, error) {
	var t timer
	if len(frames) == 0 {
		return t, nil
	}
	s := lanes.New(sinkTransport{}, lanes.Config{})
	for start := time.Now(); time.Since(start) < replayBudget; {
		t0 := time.Now()
		for i, f := range frames {
			if err := s.Enqueue(adaptivecast.NodeID(1+i%4), lanes.Data, f, 1, nil); err != nil {
				_ = s.Close() // always nil
				return t, err
			}
		}
		t.ns += int64(time.Since(t0))
		t.calls += int64(len(frames))
		s.WaitIdle(time.Second)
	}
	return t, s.Close()
}
