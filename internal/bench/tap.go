package main

import (
	"encoding/binary"
	"errors"
	"sync/atomic"

	"adaptivecast"
	"adaptivecast/internal/transport"
)

// frameKind classifies a frame for the tap: the lane class it rides.
type frameKind uint8

const (
	kindData frameKind = iota // broadcast payloads (data lane)
	kindHB                    // heartbeats, deltas, membership (control lane)
	numKinds
)

func (k frameKind) String() string {
	if k == kindData {
		return "data"
	}
	return "hb"
}

// Wire header layout the tap relies on (internal/wire/binary.go): byte 2
// is the frame kind, and a data payload opens with the origin (zigzag
// varint) and the sequence number (uvarint). TestTapParsesDataHeader pins
// this against wire.Decode.
const (
	wireHeaderSize = 3
	wireKindData   = 2
)

// classify returns the frame's kind and, for data frames, the broadcast
// it carries.
func classify(frame []byte) (k frameKind, origin int, seq uint64) {
	if len(frame) < wireHeaderSize || frame[2] != wireKindData {
		return kindHB, 0, 0
	}
	o, n := binary.Varint(frame[wireHeaderSize:])
	if n <= 0 {
		return kindData, 0, 0
	}
	s, m := binary.Uvarint(frame[wireHeaderSize+n:])
	if m <= 0 {
		return kindData, int(o), 0
	}
	return kindData, int(o), s
}

// tap wraps one node's transport. It forwards every call to the inner
// transport through the same optional interfaces (BatchSender,
// MultiFrameSender, FrameOwner), so the node takes the code paths it takes
// without the tap. Untraced it only counts completed handler invocations —
// the one number the drain needs that no public counter provides (Stats
// counts first receipts, not duplicate copies). Traced it also times every
// call and records spans for the sampled requests.
type tap struct {
	inner transport.Transport
	batch transport.BatchSender
	multi transport.MultiFrameSender
	owns  bool
	id    int

	// handled counts handler invocations that have returned.
	handled atomic.Int64

	rec *recorder // nil when untraced
	tc  tapCounters
}

// tapCounters are the traced run's per-node aggregates, by frame kind.
type tapCounters struct {
	sendCalls   [numKinds]atomic.Int64 // transport calls
	sendNs      [numKinds]atomic.Int64 // time inside the inner transport
	sendFrames  [numKinds]atomic.Int64 // distinct frames handed over
	sendCopies  [numKinds]atomic.Int64 // logical copies handed over
	sendBytes   [numKinds]atomic.Int64 // bytes handed over (copies included)
	handleCalls [numKinds]atomic.Int64 // handler invocations
	handleNs    [numKinds]atomic.Int64 // time inside the node's handler
}

var _ transport.Transport = (*tap)(nil)
var _ transport.BatchSender = (*tap)(nil)
var _ transport.MultiFrameSender = (*tap)(nil)
var _ transport.FrameOwner = (*tap)(nil)

func newTap(inner transport.Transport, rec *recorder) (*tap, error) {
	t := &tap{inner: inner, id: int(inner.Local()), rec: rec}
	var ok bool
	if t.batch, ok = inner.(transport.BatchSender); !ok {
		return nil, errors.New("bench: transport lacks BatchSender")
	}
	if t.multi, ok = inner.(transport.MultiFrameSender); !ok {
		return nil, errors.New("bench: transport lacks MultiFrameSender")
	}
	if fo, ok := inner.(transport.FrameOwner); ok {
		t.owns = fo.HandlerOwnsFrame()
	}
	return t, nil
}

func (t *tap) Local() adaptivecast.NodeID { return t.inner.Local() }
func (t *tap) Close() error               { return t.inner.Close() }
func (t *tap) HandlerOwnsFrame() bool     { return t.owns }

func (t *tap) SetHandler(h transport.Handler) {
	if t.rec == nil {
		t.inner.SetHandler(func(from adaptivecast.NodeID, frame []byte) {
			h(from, frame)
			t.handled.Add(1)
		})
		return
	}
	t.inner.SetHandler(func(from adaptivecast.NodeID, frame []byte) {
		k, origin, seq := classify(frame)
		t0 := t.rec.now()
		h(from, frame)
		t1 := t.rec.now()
		t.handled.Add(1)
		t.tc.handleCalls[k].Add(1)
		t.tc.handleNs[k].Add(t1 - t0)
		t.rec.handled(t, int(from), k, origin, seq, frame, t0, t1)
	})
}

func (t *tap) Send(to adaptivecast.NodeID, frame []byte) error {
	return t.SendN(to, frame, 1)
}

func (t *tap) SendN(to adaptivecast.NodeID, frame []byte, n int) error {
	if t.rec == nil || n <= 0 {
		return t.batch.SendN(to, frame, n)
	}
	t0 := t.rec.now()
	err := t.batch.SendN(to, frame, n)
	t1 := t.rec.now()
	k, origin, seq := classify(frame)
	t.countSend(k, t1-t0, 1, n, n*len(frame))
	t.rec.sent(t, int(to), k, origin, seq, 1, n, n*len(frame), t0, t1)
	return err
}

func (t *tap) SendFrames(to adaptivecast.NodeID, batch []transport.FrameBatch) error {
	if t.rec == nil || len(batch) == 0 {
		return t.multi.SendFrames(to, batch)
	}
	t0 := t.rec.now()
	err := t.multi.SendFrames(to, batch)
	t1 := t.rec.now()
	// A lane flush is one class: the data lane batches, control goes out
	// frame by frame through SendN.
	k, _, _ := classify(batch[0].Frame)
	copies, bytes := 0, 0
	for _, e := range batch {
		if e.Copies > 0 {
			copies += e.Copies
			bytes += e.Copies * len(e.Frame)
		}
	}
	t.countSend(k, t1-t0, len(batch), copies, bytes)
	for _, e := range batch {
		if e.Copies > 0 {
			_, origin, seq := classify(e.Frame)
			t.rec.sent(t, int(to), k, origin, seq, len(batch), e.Copies, e.Copies*len(e.Frame), t0, t1)
		}
	}
	return err
}

func (t *tap) countSend(k frameKind, ns int64, frames, copies, bytes int) {
	t.tc.sendCalls[k].Add(1)
	t.tc.sendNs[k].Add(ns)
	t.tc.sendFrames[k].Add(int64(frames))
	t.tc.sendCopies[k].Add(int64(copies))
	t.tc.sendBytes[k].Add(int64(bytes))
}

// tapSums is a plain copy of tapCounters for one frame kind.
type tapSums struct {
	sendCalls, sendNs, sendFrames, sendCopies, sendBytes int64
	handleCalls, handleNs                                int64
}

func (a tapSums) sub(b tapSums) tapSums {
	return tapSums{a.sendCalls - b.sendCalls, a.sendNs - b.sendNs, a.sendFrames - b.sendFrames,
		a.sendCopies - b.sendCopies, a.sendBytes - b.sendBytes,
		a.handleCalls - b.handleCalls, a.handleNs - b.handleNs}
}

// tapTotals sums the traced counters over every tap of the cluster.
func (c *cluster) tapTotals() [numKinds]tapSums {
	var out [numKinds]tapSums
	for _, t := range c.taps {
		for k := range out {
			out[k].sendCalls += t.tc.sendCalls[k].Load()
			out[k].sendNs += t.tc.sendNs[k].Load()
			out[k].sendFrames += t.tc.sendFrames[k].Load()
			out[k].sendCopies += t.tc.sendCopies[k].Load()
			out[k].sendBytes += t.tc.sendBytes[k].Load()
			out[k].handleCalls += t.tc.handleCalls[k].Load()
			out[k].handleNs += t.tc.handleNs[k].Load()
		}
	}
	return out
}
