// Package a seeds chanowner's caught violations and correctly-silent
// near-misses. Directives sit in field doc comments so the field line
// keeps its comment slot for want expectations.
package a

type node struct {
	//adaptivelint:chan owner=push close=never
	deliveries chan int
	//adaptivelint:chan owner=none close=Stop
	stop chan struct{}
	//adaptivelint:chan owner=none close=StopMissing
	orphan chan struct{} // want `node.orphan declares close=StopMissing, but nothing in the package closes it`
	//adaptivelint:chan owner=pusher
	partial chan int      // want `malformed chan directive on node.partial: both owner= and close= are required`
	wake    chan struct{} // want `channel-typed field node.wake has no //adaptivelint:chan directive`
}

// push is the declared owner; the send in its closure attributes to it.
func push(n *node, v int) {
	send := func() {
		n.deliveries <- v
	}
	send()
}

func rogueSend(n *node, v int) {
	n.deliveries <- v // want `send on node.deliveries from rogueSend; declared owners: push`
}

func signalSend(n *node) {
	n.stop <- struct{}{} // want `send on node.stop, declared owner=none`
}

// Stop is the declared closer.
func Stop(n *node) {
	close(n.stop)
}

func rogueClose(n *node) {
	close(n.stop) // want `close of node.stop from rogueClose; declared closer: Stop`
}

func closeDeliveries(n *node) {
	close(n.deliveries) // want `close of node.deliveries, declared close=never`
}

// sched exercises receiver-qualified roles: only sched.kick may send,
// and Close must stay the one function that closes.
type sched struct {
	//adaptivelint:chan owner=sched.kick close=Close
	stopq chan struct{}
}

func (s *sched) kick() {
	s.stopq <- struct{}{}
}

type schedHandle struct{ s *sched }

// kick on another type does not satisfy the qualified role.
func (h *schedHandle) kick() {
	h.s.stopq <- struct{}{} // want `send on sched.stopq from kick; declared owners: sched.kick`
}

func (s *sched) Close() {
	close(s.stopq)
}

func (h *schedHandle) Close() {
	close(h.s.stopq) // want `close of sched.stopq reachable from more than one function`
}

// aliasEscape is the documented blind spot: a channel copied into a
// local escapes the syntactic check and stays silent.
func aliasEscape(n *node, v int) {
	ch := n.deliveries
	ch <- v
}

// ring exercises a generic receiver: the role ring.signal names the
// method of *ring[T].
type ring[T any] struct {
	//adaptivelint:chan owner=ring.signal close=never
	wake chan struct{}
	held []T
}

func (q *ring[T]) signal() {
	q.wake <- struct{}{}
}

func (q *ring[T]) put(v T) {
	q.held = append(q.held, v)
	q.wake <- struct{}{} // want `send on ring.wake from put; declared owners: ring.signal`
}
