package adaptivecast

import "adaptivecast/internal/transport"

// Transport moves opaque frames between protocol nodes. A Node works over
// any implementation; the package ships two — the in-process Fabric and
// TCP. Handlers are invoked on a transport receive goroutine, one frame
// at a time per node, so node state machines see serialized input.
type Transport = transport.Transport

// Handler consumes one inbound frame. Implementations must not retain the
// frame slice after returning unless the transport declares, with
// HandlerOwnsFrame, that the handler owns it: TCP does; the Fabric lends
// each frame for the call and reuses its buffer afterwards.
type Handler = transport.Handler

// BatchSender is the optional transport fast path for sending n logical
// copies of one frame more cheaply than n Send calls: the receiver's
// handler runs once per copy the transport puts on the wire and that
// arrives, and the transport is free to batch the work. Whether the
// copies fail independently depends on the transport: the built-in
// Fabric samples loss per copy and delivers the survivors from one queue
// entry, while over TCP's one ordered stream they would share a fate (if
// copy k arrives, copy 1 did), so TCP writes the frame once. Custom
// transports need not implement it: the protocol always goes through
// SendN, which falls back to looping Send.
type BatchSender = transport.BatchSender

// SendN transmits n logical copies of frame to one peer, using the
// transport's BatchSender fast path when present and a best-effort loop
// of Send calls otherwise. It reports how many copies were handed to the
// transport (a batching transport is all-or-nothing; the fallback loop
// attempts every copy), with the last failure when sent < n.
func SendN(t Transport, to NodeID, frame []byte, n int) (sent int, err error) {
	return transport.SendN(t, to, frame, n)
}

// Fabric is an in-process "network": it owns one endpoint per node and
// applies injectable per-link loss probabilities and latency, giving the
// live node stack the same probabilistic environment the paper's
// simulator models. Obtain per-node transports with Endpoint.
type Fabric = transport.Fabric

// FabricOptions tunes the in-process transport (seed, latency, queue
// size).
type FabricOptions = transport.FabricOptions

// FabricStats counts fabric-level events (sent, lost, overflows).
type FabricStats = transport.FabricStats

// NewFabric returns an empty in-process fabric. Endpoints are created on
// first use with Fabric.Endpoint and plug straight into NewNode.
func NewFabric(opts FabricOptions) *Fabric { return transport.NewFabric(opts) }

// TCP is a Transport over real sockets: length-prefixed frames preceded
// by a one-time hello identifying the sender. Connections are dialed on
// demand and cached; each connection's reader runs the handler under one
// transport-wide lock, so handler calls never overlap and a connection's
// frames arrive in order.
type TCP = transport.TCP

// TCPOptions tunes the TCP transport (dial timeout, dial hook).
type TCPOptions = transport.TCPOptions

// TCPStats counts a TCP transport's outbound work (socket flushes,
// frames, bytes); see TCP.Stats. One SendN batch costs one flush.
type TCPStats = transport.TCPStats

// DialTCP starts a TCP transport for node `local`, listening on
// listenAddr (":0" picks an ephemeral port, see TCP.Addr) and able to
// reach the peers in the address book (peer ID → host:port). The book may
// be nil and extended later with TCP.AddPeer.
func DialTCP(local NodeID, listenAddr string, peers map[NodeID]string, opts TCPOptions) (*TCP, error) {
	return transport.NewTCP(local, listenAddr, peers, opts)
}
