// Package transport abstracts frame delivery between live nodes. Two
// implementations ship with the library:
//
//   - Fabric / endpoint: an in-process transport with an injectable loss
//     probability per link, drawn per copy, and an optional fabric-wide
//     latency — the paper's network model, used by the examples,
//     integration tests and benchmarks to run whole clusters of goroutine
//     nodes in one process (the hostile networks are the simulator's:
//     internal/sim's fault models);
//   - TCP: a length-prefixed frame protocol over the standard library's
//     net package, for running nodes across real machines.
//
// Transports deliver opaque byte frames; the wire package handles
// encoding. Handlers are invoked on a transport receive goroutine (the
// Fabric endpoint's receive loop, a TCP connection's reader), one frame at
// a time per node, so node state machines see serialized input.
package transport

import "adaptivecast/internal/topology"

// Handler consumes one inbound frame. The frame is lent for the call:
// both transports of this package take its buffer back when the handler
// returns and read or copy a later frame into it, so a handler copies
// whatever it keeps.
type Handler func(from topology.NodeID, frame []byte)

// Transport sends frames to peers and feeds inbound frames to a handler.
type Transport interface {
	// Local returns the node ID this endpoint speaks for.
	Local() topology.NodeID
	// SetHandler installs the inbound frame consumer. It must be called
	// before the first Send and at most once.
	SetHandler(h Handler)
	// Send transmits a frame. Sends are best-effort: probabilistic
	// transports may drop frames silently — that is the failure model the
	// protocol is built for — but structural failures (unknown peer,
	// closed transport) return an error.
	//
	// Buffer ownership: the frame slice is only borrowed for the duration
	// of the call — when Send returns, the buffer is the caller's again
	// and may be recycled immediately. Implementations that need the
	// bytes later (queued delivery, async writes) must copy before
	// returning; both in-package transports do (the Fabric copies each
	// routed frame into a buffer it lends the receiver; TCP has written
	// the frame to the socket before it returns). This is the outbound
	// mirror of Handler's lending, and it is what makes pooled encode
	// buffers on the send path sound.
	Send(to topology.NodeID, frame []byte) error
	// Close releases resources and stops the receive loop. It is
	// idempotent; after Close, Send fails and no handler runs.
	Close() error
}

// BatchSender is the optional fast path for transports that can deliver n
// logical copies of one frame more cheaply than n Send calls — the
// adaptive protocol's allocator assigns m[j] identical copies per tree
// edge, so the datapath sends the same bytes to the same peer in bursts.
//
// Contract: SendN(to, frame, n) hands over n copies of the frame, and the
// receiver's handler runs once per copy the transport puts on the wire
// and that arrives; a transport whose copies share a fate puts one on the
// wire. n <= 0 is a no-op. Like Send, a nil error means the batch was
// handed to the transport, not that any copy arrived.
//
// Whether the copies fail independently is the transport's, and the two
// in this package differ. The Fabric samples loss per copy, the
// independent losses the protocol's reliability math (Eq. 3) assumes, and
// delivers the survivors from a single inbox entry (one buffer copy, one
// inbox put), so the handler runs once per surviving copy. Over TCP the
// copies would share a fate — on one ordered stream, if copy k arrives
// then copy 1 arrived before it — so copies 2..n buy no reliability, and
// TCP writes the frame once, in one flush: the handler runs at most once.
type BatchSender interface {
	SendN(to topology.NodeID, frame []byte, n int) error
}

// FrameOwner was the marker of a transport that handed its handler each
// frame buffer to keep. No transport implements it and the node no
// longer asks: every transport lends its frames, and the node copies
// what outlives the handler call, a delivered body and a relayed frame.
// It remains only because the benchmark's transport tap
// (internal/bench/tap.go) names it.
type FrameOwner interface {
	// HandlerOwnsFrame reports whether handler-received frame buffers are
	// the handler's to keep.
	HandlerOwnsFrame() bool
}

// FrameBatch is one entry of a coalesced flush: an encoded frame and the
// number of logical copies the plan allocated (the per-edge m[j] burst).
type FrameBatch struct {
	Frame  []byte
	Copies int
}

// MultiFrameSender is the optional fast path for transports that can
// flush several *distinct* frames to one peer more cheaply than one call
// per frame — the lane scheduler coalesces different broadcasts queued
// for the same peer into one flush, and a transport implementing this
// turns the whole flush into one operation (TCP: one buffered Write; the
// Fabric: one lock acquisition with loss still sampled per copy).
//
// Contract: SendFrames(to, batch) is semantically the concatenation of
// SendN(to, e.Frame, e.Copies) over the batch, in order — how many
// copies go on the wire and the transport's loss model included (see
// BatchSender). Entries with Copies <= 0 are skipped. Frame buffers
// follow Send's ownership rule: borrowed for the call, the caller's
// again on return.
type MultiFrameSender interface {
	SendFrames(to topology.NodeID, batch []FrameBatch) error
}

// SendFrames flushes a batch of distinct frames to one peer, using the
// transport's MultiFrameSender fast path when it has one and degrading
// to a SendN loop otherwise. It reports how many logical copies were
// handed to the transport; like SendN, the fast path is all-or-nothing
// while the fallback loop counts per-entry successes. err is the last
// failure when any entry failed, nil otherwise.
func SendFrames(t Transport, to topology.NodeID, batch []FrameBatch) (sent int, err error) {
	total := 0
	for _, e := range batch {
		if e.Copies > 0 {
			total += e.Copies
		}
	}
	if total == 0 {
		return 0, nil
	}
	if ms, ok := t.(MultiFrameSender); ok {
		if err := ms.SendFrames(to, batch); err != nil {
			return 0, err
		}
		return total, nil
	}
	var lastErr error
	for _, e := range batch {
		got, err := SendN(t, to, e.Frame, e.Copies)
		sent += got
		if err != nil {
			lastErr = err
		}
	}
	return sent, lastErr
}

// SendN transmits n logical copies of frame to one peer, using the
// transport's BatchSender fast path when it has one and degrading to a
// best-effort loop of Send calls otherwise. It reports how many copies
// were handed to the transport: a batching transport is all-or-nothing
// (n or 0), while the fallback loop attempts every copy and counts the
// successes, so callers keep exact accounting across partial failures.
// err is the last failure when any copy failed (sent < n), nil otherwise.
// Callers on the broadcast datapath should always go through this helper
// rather than looping themselves, so any transport that learns to batch
// speeds them up transparently.
func SendN(t Transport, to topology.NodeID, frame []byte, n int) (sent int, err error) {
	if n <= 0 {
		return 0, nil
	}
	if bs, ok := t.(BatchSender); ok {
		if err := bs.SendN(to, frame, n); err != nil {
			return 0, err
		}
		return n, nil
	}
	var lastErr error
	for i := 0; i < n; i++ {
		if err := t.Send(to, frame); err == nil {
			sent++
		} else {
			lastErr = err
		}
	}
	return sent, lastErr
}
