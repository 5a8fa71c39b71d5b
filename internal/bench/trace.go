package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. Every span is recorded from the benchmark's own files, at a
// layer boundary the benchmark can see: the public Node API (broadcast,
// tick, Subscribe callback) and the transport interface (send, handler).
const (
	spanBroadcast = "node.broadcast"   // origin-side Broadcast call
	spanTick      = "node.tick"        // one Node.Tick call
	spanSend      = "transport.send"   // one transport call carrying the frame
	spanHandle    = "node.handle"      // one handler invocation for the frame
	spanDeliver   = "app.deliver"      // Subscribe callback ran at a process
	maxSpans      = 240_000            // in-memory cap; beyond it spans are counted, not kept
	maxDataFrames = 256                // raw data frames kept for the wire replays
	sampleMulA    = 0x9E3779B97F4A7C15 // hash multipliers for request sampling
	sampleMulB    = 0xD1B54A32D192ED03
)

// span is one recorded interval. Req identifies the request: (origin,
// seq) for data frames and broadcasts, (sending node, period) for
// heartbeats and ticks. Parent is the span that caused this one: the send
// that carried a handled frame, the handler (or broadcast/tick call) that
// enqueued a sent one.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Kind   string `json:"kind,omitempty"`
	Node   int    `json:"node"`
	Peer   int    `json:"peer"`
	ReqA   int    `json:"req_a"`
	ReqB   uint64 `json:"req_b"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Frames int    `json:"frames,omitempty"`
	Copies int    `json:"copies,omitempty"`
	Bytes  int    `json:"bytes,omitempty"`
}

// recorder holds the traced run's spans in memory until the workload
// ends. Taps time every call; spans are kept only for a hashed sample of
// requests so that a run of millions of frames stays within maxSpans.
type recorder struct {
	t0          time.Time
	sampleData  uint64 // keep 1 in sampleData broadcasts
	sampleHB    int64  // keep every sampleHB-th period
	period      atomic.Int64
	recording   atomic.Bool
	shadows     map[int]*shadow // sampled nodes' shadow views, by node id
	mu          sync.Mutex
	spans       []span
	dropped     int
	dataFrames  [][]byte
	dataFrameMu sync.Mutex
}

func newRecorder(sampleData uint64, sampleHB int64) *recorder {
	return &recorder{
		t0:         time.Now(),
		sampleData: sampleData,
		sampleHB:   sampleHB,
		shadows:    make(map[int]*shadow),
		spans:      make([]span, 0, 1<<16),
	}
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

func (r *recorder) wantData(origin int, seq uint64) bool {
	h := (uint64(origin)+1)*sampleMulA ^ seq*sampleMulB
	return (h>>24)%r.sampleData == 0
}

func (r *recorder) wantHB() (period int64, ok bool) {
	p := r.period.Load()
	return p, p%r.sampleHB == 0
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	if len(r.spans) >= maxSpans {
		r.dropped++
	} else {
		r.spans = append(r.spans, s)
	}
	r.mu.Unlock()
}

// sent is called by a tap after a transport call returned.
func (r *recorder) sent(t *tap, to int, k frameKind, origin int, seq uint64, frames, copies, bytes int, t0, t1 int64) {
	if !r.recording.Load() {
		return
	}
	s := span{Name: spanSend, Kind: k.String(), Node: t.id, Peer: to, Start: t0, End: t1,
		Frames: frames, Copies: copies, Bytes: bytes}
	if k == kindData {
		if !r.wantData(origin, seq) {
			return
		}
		s.ReqA, s.ReqB = origin, seq
	} else {
		p, ok := r.wantHB()
		if !ok {
			return
		}
		s.ReqA, s.ReqB = t.id, uint64(p)
	}
	r.add(s)
}

// handled is called by a tap after the node's handler returned. It also
// feeds the shadow view of a sampled node (always, so the shadow tracks
// the real view from the first period) and keeps a few raw data frames
// for the wire replays.
func (r *recorder) handled(t *tap, from int, k frameKind, origin int, seq uint64, frame []byte, t0, t1 int64) {
	if k == kindHB {
		if sh := r.shadows[t.id]; sh != nil {
			sh.merge(frame)
		}
	}
	if !r.recording.Load() {
		return
	}
	s := span{Name: spanHandle, Kind: k.String(), Node: t.id, Peer: from, Start: t0, End: t1, Bytes: len(frame)}
	if k == kindData {
		if !r.wantData(origin, seq) {
			return
		}
		s.ReqA, s.ReqB = origin, seq
		r.keepDataFrame(frame)
	} else {
		p, ok := r.wantHB()
		if !ok {
			return
		}
		s.ReqA, s.ReqB = from, uint64(p)
	}
	r.add(s)
}

func (r *recorder) keepDataFrame(frame []byte) {
	r.dataFrameMu.Lock()
	if len(r.dataFrames) < maxDataFrames {
		r.dataFrames = append(r.dataFrames, append([]byte(nil), frame...))
	}
	r.dataFrameMu.Unlock()
}

// call records a span around a public-API call made by the benchmark.
func (r *recorder) call(name string, node, reqA int, reqB uint64, t0, t1 int64) {
	if r == nil || !r.recording.Load() {
		return
	}
	switch name {
	case spanTick:
		if _, ok := r.wantHB(); !ok {
			return
		}
	default:
		if !r.wantData(reqA, reqB) {
			return
		}
	}
	r.add(span{Name: name, Node: node, Peer: -1, ReqA: reqA, ReqB: reqB, Start: t0, End: t1})
}

type spanKey struct {
	name string
	kind string
	node int
	peer int
	a    int
	b    uint64
}

// link assigns ids and resolves every span's parent. It runs once, after
// the workload, on the quiesced recorder.
func (r *recorder) link() {
	sort.SliceStable(r.spans, func(i, j int) bool { return r.spans[i].Start < r.spans[j].Start })
	calls := make(map[spanKey]int)  // broadcast and tick spans
	sends := make(map[spanKey]int)  // send spans by (node, peer, request)
	firstH := make(map[spanKey]int) // earliest data handler per (node, request)
	for i := range r.spans {
		s := &r.spans[i]
		s.ID = i + 1
		switch s.Name {
		case spanBroadcast, spanTick:
			calls[spanKey{name: s.Name, node: s.Node, a: s.ReqA, b: s.ReqB}] = s.ID
		case spanSend:
			sends[spanKey{kind: s.Kind, node: s.Node, peer: s.Peer, a: s.ReqA, b: s.ReqB}] = s.ID
		case spanHandle:
			if s.Kind == kindData.String() {
				k := spanKey{node: s.Node, a: s.ReqA, b: s.ReqB}
				if _, ok := firstH[k]; !ok {
					firstH[k] = s.ID // spans are in start order
				}
			}
		}
	}
	for i := range r.spans {
		s := &r.spans[i]
		switch {
		case s.Name == spanSend && s.Kind == kindData.String(), s.Name == spanDeliver:
			if s.Node == s.ReqA {
				s.Parent = calls[spanKey{name: spanBroadcast, node: s.Node, a: s.ReqA, b: s.ReqB}]
			} else {
				s.Parent = firstH[spanKey{node: s.Node, a: s.ReqA, b: s.ReqB}]
			}
		case s.Name == spanSend:
			s.Parent = calls[spanKey{name: spanTick, node: s.Node, a: s.ReqA, b: s.ReqB}]
		case s.Name == spanHandle:
			s.Parent = sends[spanKey{kind: s.Kind, node: s.Peer, peer: s.Node, a: s.ReqA, b: s.ReqB}]
		}
	}
}

func (r *recorder) byID(id int) *span {
	if id <= 0 || id > len(r.spans) {
		return nil
	}
	return &r.spans[id-1]
}

// write dumps the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			_ = f.Close()
			return fmt.Errorf("span file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("span file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return nil
}

// spanStats are the numbers derived from the linked spans.
type spanStats struct {
	dataResidenceUs []float64 // data send start − end of the call that enqueued it (≥ 0)
	ctlResidenceUs  []float64 // the same for control frames after their tick
	onewayUs        []float64 // send call start → first handler start at the peer
	path            pathBreakdown
}

// pathBreakdown tiles one broadcast's origin→last-delivery interval into
// the layers that held it, averaged over the sampled broadcasts whose
// whole critical path was recorded.
type pathBreakdown struct {
	n          int
	e2eUs      float64 // Broadcast call start → last Subscribe callback end
	nodeUs     float64 // inside Broadcast / handlers, up to the enqueue
	lanesUs    float64 // enqueued, waiting for the flush call
	sendUs     float64 // inside the transport's send call
	queueUs    float64 // handed to the transport, waiting for the peer's handler
	dispatchUs float64 // handler returned, waiting for the Subscribe callback
	hops       float64
}

func (p pathBreakdown) sumUs() float64 {
	return p.nodeUs + p.lanesUs + p.sendUs + p.queueUs + p.dispatchUs
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

func (r *recorder) analyze() spanStats {
	var st spanStats
	firstHandle := make(map[int]int64) // send span id → earliest handler start
	lastDeliver := make(map[[2]uint64]*span)
	delivers := make(map[[2]uint64]int)
	for i := range r.spans {
		s := &r.spans[i]
		switch s.Name {
		case spanSend:
			p := r.byID(s.Parent)
			if p == nil {
				continue
			}
			wait := us(s.Start - p.End)
			if wait < 0 {
				wait = 0 // the drain goroutine flushed before the enqueuing call returned
			}
			if s.Kind == kindData.String() {
				st.dataResidenceUs = append(st.dataResidenceUs, wait)
			} else {
				st.ctlResidenceUs = append(st.ctlResidenceUs, wait)
			}
		case spanHandle:
			if s.Parent != 0 {
				if _, ok := firstHandle[s.Parent]; !ok {
					firstHandle[s.Parent] = s.Start
				}
			}
		case spanDeliver:
			k := [2]uint64{uint64(s.ReqA), s.ReqB}
			delivers[k]++
			if l := lastDeliver[k]; l == nil || s.End > l.End {
				lastDeliver[k] = s
			}
		}
	}
	for id, hs := range firstHandle {
		st.onewayUs = append(st.onewayUs, us(hs-r.byID(id).Start))
	}
	sort.Float64s(st.dataResidenceUs)
	sort.Float64s(st.ctlResidenceUs)
	sort.Float64s(st.onewayUs)

	for _, last := range lastDeliver {
		if b, ok := r.criticalPath(last); ok {
			st.path.n++
			st.path.e2eUs += b.e2eUs
			st.path.nodeUs += b.nodeUs
			st.path.lanesUs += b.lanesUs
			st.path.sendUs += b.sendUs
			st.path.queueUs += b.queueUs
			st.path.dispatchUs += b.dispatchUs
			st.path.hops += b.hops
		}
	}
	if n := float64(st.path.n); n > 0 {
		st.path.e2eUs /= n
		st.path.nodeUs /= n
		st.path.lanesUs /= n
		st.path.sendUs /= n
		st.path.queueUs /= n
		st.path.dispatchUs /= n
		st.path.hops /= n
	}
	return st
}

// criticalPath walks from the last Subscribe callback of a broadcast back
// to the Broadcast call, splitting the interval at every span boundary.
// The pieces tile the interval exactly, so their sum is the broadcast's
// end-to-end latency whenever every span on the path was kept.
func (r *recorder) criticalPath(last *span) (pathBreakdown, bool) {
	var b pathBreakdown
	cause := r.byID(last.Parent) // handler at the last process, or the broadcast call
	if cause == nil {
		return b, false
	}
	// Tail: handler (or call) start → callback end.
	nodeEnd := min(cause.End, last.End)
	b.nodeUs += us(nodeEnd - cause.Start)
	b.dispatchUs += us(last.End - nodeEnd)
	for cause.Name == spanHandle {
		send := r.byID(cause.Parent)
		if send == nil {
			return b, false
		}
		up := r.byID(send.Parent) // what enqueued the frame at the sender
		if up == nil {
			return b, false
		}
		b.hops++
		sendEnd := min(send.End, cause.Start)
		b.sendUs += us(sendEnd - send.Start)
		b.queueUs += us(cause.Start - sendEnd)
		enq := min(up.End, send.Start)
		b.lanesUs += us(send.Start - enq)
		b.nodeUs += us(enq - up.Start)
		cause = up
	}
	if cause.Name != spanBroadcast {
		return b, false
	}
	b.n = 1
	b.e2eUs = us(last.End - cause.Start)
	return b, true
}
